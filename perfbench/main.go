// Command perfbench is the repository's benchmark. It drives one of three
// closed-loop workloads through the public qxmap API inside this one
// process, checks every answer against references it computes itself, and
// prints one JSON result line. BENCHMARK.json at the repository root names
// the workloads and metrics; perfbench/README.md explains them.
//
//	perfbench -workload table1-sat -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 a
// separate traced run reports the per-layer metrics and writes its spans to
// the work directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// runDeadline bounds a whole run, so a stuck solve ends as an error well
// inside the 180 s a run may take.
const runDeadline = 165 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses the arguments, runs one workload and prints its result; it
// returns the process exit code. Every Mapper and temporary directory the
// run creates is released before run returns, on every path.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "seed the inputs are made from")
	seconds := fs.Float64("seconds", 20, "measure at least this long, in whole rounds (0 = one round)")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	dir := fs.String("dir", ".bench_build/perfbench-work", "work directory for temporary stores, traces and repeat records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "perfbench: usage: -workload <name> -seed <n> -seconds <s> -trace <0|1>")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		dir:      *dir,
	}
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	rep, err := execute(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// dir holds the run's temporary store directories (removed before the
	// run returns), its trace file and the repeat-check records.
	dir string
	// small shrinks every input set to a few cheap instances (tests only).
	small bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// notes are printed before the result line: sample counts, the
	// percentile behind latency_ms_tail, check failures.
	notes []string
}

// print writes the notes and then the result as the last line.
func (r *report) print(w io.Writer) error {
	for _, n := range r.notes {
		if _, err := fmt.Fprintln(w, "#", n); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if _, err := fmt.Fprintf(w, "# %-26s %14.6g %s\n", n, m.Value, m.Unit); err != nil {
			return err
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// execute sets the configured workload up, measures it untraced or traced,
// releases everything it made and checks the counts against earlier runs.
func execute(ctx context.Context, cfg config) (*report, error) {
	newBench, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (valid: %v)", cfg.workload, workloadNames())
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, fmt.Errorf("work directory: %w", err)
	}
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	s, err := startSession(ctx, cfg, b)
	if err != nil {
		return nil, err
	}
	rep, err := s.measure(ctx)
	if cerr := s.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := checkRepeat(cfg, rep); err != nil {
		if !errors.Is(err, errRepeatMismatch) {
			return nil, err
		}
		rep.Correct = false
		rep.notes = append(rep.notes, err.Error())
	}
	return rep, nil
}
