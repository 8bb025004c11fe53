// Command perfbench is the repository's end-to-end benchmark: it drives
// the tuner's layers from outside, through their public functions, on
// four named workloads, checks every workload's outputs, and prints one
// JSON result line with every metric by name and unit.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run is split into an untraced and a traced half, spans
// are recorded around every layer call the benchmark makes, and the
// result carries the per-layer metrics plus the tracing overhead. See
// README.md for the workload, layer and metric tables.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupReps is how many times each workload builds its set-up per run;
// setup_s reports the median, so one slow build does not move it.
const setupReps = 5

// procs is the GOMAXPROCS the benchmark runs with. With one P the
// process's CPU time per iteration is the work of that iteration alone,
// and the benchmark leaves the host's other core to everything else.
const procs = 1

func main() {
	processStart := time.Now()
	runtime.GOMAXPROCS(procs)
	var (
		workloadName = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed         = flag.Uint64("seed", 1, "input seed")
		seconds      = flag.Float64("seconds", 10, "length of the timed phase")
		traceFlag    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		dir          = flag.String("dir", ".bench_build", "scratch directory for checkpoints, journals and traces")
	)
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	wl, ok := workloads[*workloadName]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", *workloadName, strings.Join(workloadNames(), ", "))
	}
	runDir, err := os.MkdirTemp(mustMkdir(*dir), "run-")
	if err != nil {
		fatalf("scratch directory: %v", err)
	}
	defer os.RemoveAll(runDir)

	opts := runOptions{
		seed:    *seed,
		timed:   time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
		dir:     runDir,
		started: processStart,
	}
	res, tr, err := execute(context.Background(), *workloadName, wl, opts)
	if err != nil {
		fatalf("%s: %v", *workloadName, err)
	}
	if tr != nil {
		path := filepath.Join(*dir, fmt.Sprintf("trace-%s-%d.jsonl", *workloadName, *seed))
		if err := tr.writeFile(path, *workloadName); err != nil {
			fatalf("writing trace: %v", err)
		}
		fmt.Printf("# spans: %s\n", path)
	}
	led, _ := json.Marshal(ledgerFor(opts))
	fmt.Printf("# ledger: %s\n", led)
	for _, n := range res.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, e := range res.errs {
		fmt.Printf("# check failed: %s\n", e)
	}
	out, err := json.Marshal(res.line())
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(out))
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("scratch directory: %v", err)
	}
	return dir
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
