package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/jvm"
)

var update = flag.Bool("update", false, "regenerate testdata/digests.json: one pass of every workload at each digest seed")

// digestSeeds are the seeds with checked-in digests: 42, the default, and
// 7, held out for checking that a claim does not depend on the seed.
var digestSeeds = []int64{42, 7}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// loadSpec reads ../BENCHMARK.json, checking that it and each of its
// entries have exactly the expected keys.
func loadSpec(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(b))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	wantKeys(t, "BENCHMARK.json", top, "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer")
	return top
}

func wantKeys(t *testing.T, what string, m map[string]json.RawMessage, keys ...string) {
	t.Helper()
	var got []string
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	sort.Strings(keys)
	if strings.Join(got, ",") != strings.Join(keys, ",") {
		t.Errorf("%s has keys %v, want exactly %v", what, got, keys)
	}
}

// entries decodes a list of objects, checking each has exactly keys.
func entries(t *testing.T, raw json.RawMessage, what string, keys ...string) []map[string]json.RawMessage {
	t.Helper()
	var list []map[string]json.RawMessage
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i, e := range list {
		wantKeys(t, what+"["+strconv.Itoa(i)+"]", e, keys...)
	}
	return list
}

func str(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// specMetrics returns name -> unit for one metric list of BENCHMARK.json.
func specMetrics(t *testing.T, list []map[string]json.RawMessage) map[string]string {
	out := map[string]string{}
	for _, e := range list {
		out[str(t, e["name"])] = str(t, e["unit"])
	}
	return out
}

func TestBenchmarkJSONSchema(t *testing.T) {
	top := loadSpec(t)

	var paths, command []string
	var runSeconds int
	for k, v := range map[string]any{"paths": &paths, "command": &command, "run_seconds": &runSeconds} {
		if err := json.Unmarshal(top[k], v); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
	}
	if len(paths) != 1 || paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", paths)
	}
	if len(command) == 0 || len(command) > 32 {
		t.Errorf("command has %d strings", len(command))
	}
	for _, c := range command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q is too long, absolute or leaves the repository", c)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", runSeconds)
	}

	seen := map[string]bool{}
	checkName := func(what, name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("%s name %q is malformed or used twice", what, name)
		}
		seen[name] = true
	}
	var workloadNames []string
	for _, e := range entries(t, top["workloads"], "workloads", "name", "why") {
		name, why := str(t, e["name"]), str(t, e["why"])
		checkName("workload", name)
		if why == "" || len(why) > 200 || strings.ContainsAny(why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", name)
		}
		workloadNames = append(workloadNames, name)
	}
	var programNames []string
	for _, w := range benchWorkloads() {
		programNames = append(programNames, w.name)
	}
	if strings.Join(workloadNames, ",") != strings.Join(programNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, the program runs %v", workloadNames, programNames)
	}
	if n := len(workloadNames); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}

	e2e := entries(t, top["end_to_end"], "end_to_end", "name", "unit", "better", "bound")
	layers := entries(t, top["per_layer"], "per_layer", "name", "unit", "better")
	if len(e2e) < 1 || len(e2e) > 16 || len(layers) < 1 || len(layers) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1..16 and 1..128", len(e2e), len(layers))
	}
	maxBound, setupBound := 0.0, -1.0
	for _, list := range [][]map[string]json.RawMessage{e2e, layers} {
		for _, e := range list {
			name, unit, better := str(t, e["name"]), str(t, e["unit"]), str(t, e["better"])
			checkName("metric", name)
			if !unitRE.MatchString(unit) {
				t.Errorf("metric %s: malformed unit %q", name, unit)
			}
			if better != "lower" && better != "higher" {
				t.Errorf("metric %s: better = %q", name, better)
			}
			if raw, ok := e["bound"]; ok {
				var bound float64
				if err := json.Unmarshal(raw, &bound); err != nil || bound <= 0 || bound > 0.25 {
					t.Errorf("metric %s: bound %s, want (0, 0.25]", name, raw)
				}
				maxBound = math.Max(maxBound, bound)
				if name == "setup_s" {
					setupBound = bound
					if unit != "s" || better != "lower" {
						t.Errorf("setup_s must be in s, lower better")
					}
				}
			}
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v, want the largest end-to-end bound (%v)", setupBound, maxBound)
	}
}

// tiny is the smallest workload through the benchmark's code path.
var tiny = workload{name: "tiny", runs: []runDef{{"CryptoAES", jvm.CollectorSVAGC}}}

// checkEmitted compares the metrics a run printed with BENCHMARK.json's
// list, in both directions, units included.
func checkEmitted(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for name, m := range res.Metrics {
		if unit, ok := want[name]; !ok {
			t.Errorf("the benchmark emits %s, which BENCHMARK.json does not list", name)
		} else if unit != m.Unit {
			t.Errorf("%s: emitted unit %q, BENCHMARK.json %q", name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", name, m.Value)
		}
	}
	for name := range want {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("BENCHMARK.json lists %s, which the benchmark does not emit", name)
		}
	}
}

func TestEmittedMetricsMatchBenchmarkJSON(t *testing.T) {
	top := loadSpec(t)
	e2e := specMetrics(t, entries(t, top["end_to_end"], "end_to_end", "name", "unit", "better", "bound"))
	layers := specMetrics(t, entries(t, top["per_layer"], "per_layer", "name", "unit", "better"))

	res, _, err := measure(tiny, 42, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, res, e2e)
	for name, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
		}
	}

	dir := t.TempDir()
	var log bytes.Buffer
	res, _, err = measureTraced(tiny, 42, 0, dir, &log)
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, res, layers)
	if log.Len() > 0 {
		t.Errorf("traced run logged failures:\n%s", log.String())
	}
	for _, f := range []string{"trace.json", "layers.json", "cpu.pprof"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Error(err)
		}
	}
}

func TestCLIRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "swap-large", "-trace", "2"},
		{"-workload", "swap-large", "extra"},
	} {
		var out bytes.Buffer
		if code := cli(args, &out, io.Discard); code == 0 || out.Len() > 0 {
			t.Errorf("cli(%q) = %d with output %q, want a failure and no result", args, code, out.String())
		}
	}
}

func TestDigestsCoverEveryRun(t *testing.T) {
	table, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range digestSeeds {
		for _, w := range benchWorkloads() {
			want, err := table.expectedFor(w.name, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(w.runs) {
				t.Errorf("seed %d %s: %d digests for %d runs", seed, w.name, len(want), len(w.runs))
			}
			for _, d := range w.runs {
				if _, ok := want[d.label()]; !ok {
					t.Errorf("seed %d %s: no digest for %s", seed, w.name, d.label())
				}
			}
		}
	}
}

// TestUpdateDigests regenerates testdata/digests.json under -update. It
// runs every workload for one pass at each digest seed (about half a
// minute); a change that means to move simulated results reruns it.
func TestUpdateDigests(t *testing.T) {
	if !*update {
		t.Skip("regenerates testdata/digests.json only with -update")
	}
	table := digestTable{}
	for _, seed := range digestSeeds {
		key := strconv.FormatInt(seed, 10)
		table[key] = map[string]map[string]string{}
		for _, w := range benchWorkloads() {
			s, err := newRunner(w, seed, os.Stderr)
			if err != nil {
				t.Fatal(err)
			}
			s.expected = nil
			if _, err := s.pass(); err != nil {
				t.Fatal(err)
			}
			if s.failed > 0 {
				t.Fatalf("seed %d %s: %d of %d runs failed", seed, w.name, s.failed, s.attempted)
			}
			table[key][w.name] = s.digests()
		}
	}
	b, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/digests.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
