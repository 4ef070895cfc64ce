package main

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, seed := range []int64{1, 2, 12345} {
		if a, b := channelAmplitudes(seed, 8), channelAmplitudes(seed, 8); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: channel amplitudes differ between calls: %v vs %v", seed, a, b)
		}
		for c := 0; c < semClients; c++ {
			if a, b := jobScript(seed, c, 64), jobScript(seed, c, 64); !reflect.DeepEqual(a, b) {
				t.Errorf("seed %d client %d: job scripts differ between calls", seed, c)
			}
		}
	}
	if reflect.DeepEqual(channelAmplitudes(1, 8), channelAmplitudes(2, 8)) {
		t.Error("different seeds gave identical amplitudes")
	}
	if reflect.DeepEqual(jobScript(1, 0, 64), jobScript(2, 0, 64)) {
		t.Error("different seeds gave identical job scripts")
	}
	if reflect.DeepEqual(jobScript(1, 0, 64), jobScript(1, 1, 64)) {
		t.Error("the two clients got identical job scripts")
	}
}

func TestAmplitudesAreStratified(t *testing.T) {
	const k = 8
	amps := channelAmplitudes(7, k)
	for i, a := range amps {
		lo := 5e-6 * math.Pow(4, float64(i)/k)
		hi := 5e-6 * math.Pow(4, float64(i+1)/k)
		if a < lo || a >= hi {
			t.Errorf("amplitude %d = %g outside its stratum [%g, %g)", i, a, lo, hi)
		}
	}
}

func TestJobScriptIsBalanced(t *testing.T) {
	script := jobScript(3, 0, 10*len(jobKinds)+2)
	if len(script) != 10*len(jobKinds)+2 {
		t.Fatalf("script has %d jobs", len(script))
	}
	for b := 0; b+len(jobKinds) <= len(script); b += len(jobKinds) {
		var cases []string
		for _, cfg := range script[b : b+len(jobKinds)] {
			cases = append(cases, cfg.Case)
			if cfg.BatchSteps < 1 || cfg.BatchSteps > 3 {
				t.Errorf("batch_steps %d out of range", cfg.BatchSteps)
			}
		}
		sort.Strings(cases)
		if !reflect.DeepEqual(cases, []string{"channel", "channel", "convection", "hairpin", "shearlayer"}) {
			t.Errorf("block at %d is not the job mix: %v", b, cases)
		}
	}
}
