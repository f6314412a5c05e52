package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// leftovers lists the entries of dir that a finished run must not leave:
// anything but trace files and repeat records.
func leftovers(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && (strings.HasPrefix(n, "trace-") || strings.HasPrefix(n, "repeat-")) {
			continue
		}
		left = append(left, n)
	}
	return left
}

// settledGoroutines waits briefly for the goroutine count to fall back to
// want and returns the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(3 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

func TestWorkloadsRunCleanAndLeaveNothing(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				dir := t.TempDir()
				start := runtime.NumGoroutine()
				cfg := config{workload: name, seed: 3, trace: traced, dir: dir, small: true}
				for run := 0; run < 2; run++ { // the second run meets the first's repeat record
					rep, err := execute(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !rep.Correct || rep.Attempted == 0 {
						t.Fatalf("run %d: correct=%v attempted=%d notes=%v", run, rep.Correct, rep.Attempted, rep.notes)
					}
					want := endToEndMetrics
					if traced {
						want = perLayerMetrics
					}
					if len(rep.Metrics) != len(want) {
						t.Fatalf("run %d reports %d metrics, want %d", run, len(rep.Metrics), len(want))
					}
					for _, d := range want {
						if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit {
							t.Errorf("metric %s = %+v, want unit %s", d.name, m, d.unit)
						}
					}
				}
				if left := leftovers(t, dir); len(left) > 0 {
					t.Errorf("run left %v behind", left)
				}
				if n := settledGoroutines(start); n > start {
					t.Errorf("%d goroutines after the run, %d before", n, start)
				}
			})
		}
	}
}

func TestCancelledRunCleansUp(t *testing.T) {
	dir := t.TempDir()
	start := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(300*time.Millisecond, cancel)
	cfg := config{workload: "ladder-budget", seed: 1, seconds: time.Minute, dir: dir, small: true}
	if _, err := execute(ctx, cfg); err == nil {
		t.Fatal("a cancelled run reported success")
	}
	if left := leftovers(t, dir); len(left) > 0 {
		t.Errorf("cancelled run left %v behind", left)
	}
	if n := settledGoroutines(start); n > start {
		t.Errorf("%d goroutines after the cancelled run, %d before", n, start)
	}
}

func TestRepeatCheckCatchesChangedCounts(t *testing.T) {
	cfg := config{workload: "table1-sat", seed: 9, dir: t.TempDir(), small: true}
	rep := func(added float64) *report {
		return &report{Metrics: map[string]metric{"added_gates": {Value: added, Unit: "count"}}}
	}
	if err := checkRepeat(cfg, rep(10)); err != nil {
		t.Fatal(err)
	}
	if err := checkRepeat(cfg, rep(10)); err != nil {
		t.Fatalf("identical counts: %v", err)
	}
	if err := checkRepeat(cfg, rep(11)); err == nil {
		t.Fatal("a changed count passed the repeat check")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the program's
// workload and metric lists in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEndMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, program %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program %+v", i, m, d)
		}
	}
}
