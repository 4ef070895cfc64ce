// Command perfbench is the repository's benchmark: three workloads (the
// Table 1 channel stepped serially, the same channel on 16 simulated
// ASCI-Red ranks, and semflowd job traffic over loopback HTTP), each
// checked against a reference, with end-to-end metrics from an untraced
// run and per-layer metrics from a traced one. See README.md.
//
//	go run . --workload channel-serial --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are one run's command-line settings.
type options struct {
	seed     int64
	duration time.Duration
	traced   bool
}

// traceDir is where a traced run writes its Chrome trace, inside the
// build directory run.sh uses.
var traceDir = filepath.Join(".bench_build", "traces")

// workloads maps each workload name to its runner. A runner fills rep and
// returns an error only when it could not run at all.
var workloads = map[string]func(o options, rep *report) error{
	"channel-serial":   runChannelSerial,
	"channel-dist-p16": runChannelDist,
	"semflowd-jobs":    runSemflowd,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "channel-serial, channel-dist-p16 or semflowd-jobs")
	seed := fs.Int64("seed", 1, "workload input seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runW, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {channel-serial|channel-dist-p16|semflowd-jobs}, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	// One process, at most two OS threads running Go code (one on
	// channel-dist-p16).
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	o := options{seed: *seed, duration: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	rep := newReport()
	if err := runW(o, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s, seed %d, %d s, trace %d\n", *workload, *seed, *seconds, *trace)
	if err := rep.emit(stdout, o.traced); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}
