// Command compare summarises a same-host A/B run of the benchmark. It reads
// the result lines ab.sh collected from two builds, "base" and "change",
// run in alternating pairs, and prints for every workload and end-to-end
// metric of BENCHMARK.json each side's median and quartiles, the share of
// pairs the change won, and a verdict:
//
//	improved    the change won at least 90% of the pairs (ties count for
//	            neither side) and the medians differ by more than the base's
//	            interquartile range
//	no worse    the change's median is within the metric's bound of the base's
//	worse       the change's median is worse than the base's by more than the bound
//	unresolved  the base's own spread (interquartile range over median) is wider
//	            than the bound, so "no worse" cannot be told from noise, and not
//	            every change run beats every base run
//
// It exits with status 1 when any pairing is worse or the change failed
// more runs than the base.
//
//	go run ./compare -bench ../BENCHMARK.json -results results.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"

	"repro/benchmark/quartiles"
)

// record is one line of ab.sh's results file.
type record struct {
	Side     string `json:"side"`
	Workload string `json:"workload"`
	Pair     int    `json:"pair"`
	Result   struct {
		Attempted int                                `json:"attempted"`
		Failed    int                                `json:"failed"`
		Metrics   map[string]struct{ Value float64 } `json:"metrics"`
	} `json:"result"`
}

type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "BENCHMARK.json with the metrics' direction and bound")
	resultsPath := flag.String("results", "", "results file written by ab.sh (JSON lines)")
	flag.Parse()
	code, err := run(*benchPath, *resultsPath, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(benchPath, resultsPath string, out io.Writer) (int, error) {
	var sp spec
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return 0, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return 0, fmt.Errorf("%s: %w", benchPath, err)
	}
	recs, err := readRecords(resultsPath)
	if err != nil {
		return 0, err
	}

	// side -> workload -> pair -> record
	by := map[string]map[string]map[int]record{"base": {}, "change": {}}
	var workloads []string
	for _, r := range recs {
		sides, ok := by[r.Side]
		if !ok {
			return 0, fmt.Errorf("record with side %q, want base or change", r.Side)
		}
		if by["base"][r.Workload] == nil && by["change"][r.Workload] == nil {
			workloads = append(workloads, r.Workload)
		}
		if sides[r.Workload] == nil {
			sides[r.Workload] = map[int]record{}
		}
		sides[r.Workload][r.Pair] = r
	}

	code := 0
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\tchange median [q1, q3]\tdelta\twins\tverdict")
	for _, w := range workloads {
		base, change := by["base"][w], by["change"][w]
		var pairs []int
		for p := range base {
			if _, ok := change[p]; ok {
				pairs = append(pairs, p)
			}
		}
		sort.Ints(pairs)
		failed := map[string]int{}
		for _, p := range pairs {
			failed["base"] += base[p].Result.Failed
			failed["change"] += change[p].Result.Failed
		}
		for _, m := range sp.EndToEnd {
			var bv, cv []float64
			for _, p := range pairs {
				b, okb := base[p].Result.Metrics[m.Name]
				c, okc := change[p].Result.Metrics[m.Name]
				if okb && okc {
					bv, cv = append(bv, b.Value), append(cv, c.Value)
				}
			}
			if len(bv) == 0 {
				continue
			}
			v := judge(bv, cv, m.Better == "higher", m.Bound)
			if v.verdict == "worse" {
				code = 1
			}
			bq1, bm, bq3 := quartiles.Of(bv)
			cq1, cm, cq3 := quartiles.Of(cv)
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.1f%%\t%d/%d\t%s\n",
				w, m.Name, m.Unit, bm, bq1, bq3, cm, cq1, cq3, 100*(cm-bm)/bm, v.wins, len(bv), v.verdict)
		}
		status := "ok"
		if failed["change"] > failed["base"] {
			status, code = "more failures", 1
		}
		fmt.Fprintf(tw, "%s\tfailed runs\t%d\t%d\t\t\t%s\n", w, failed["base"], failed["change"], status)
	}
	return code, tw.Flush()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

type verdict struct {
	wins    int
	verdict string
}

// judge compares paired samples of one metric; bv[i] and cv[i] are pair
// i's base and change values.
func judge(bv, cv []float64, higherBetter bool, bound float64) verdict {
	better := func(a, b float64) bool { // a is better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	var v verdict
	for i := range bv {
		if better(cv[i], bv[i]) {
			v.wins++
		}
	}
	bq1, bm, bq3 := quartiles.Of(bv)
	_, cm, _ := quartiles.Of(cv)
	allBetter := true
	for _, c := range cv {
		for _, b := range bv {
			if !better(c, b) {
				allBetter = false
			}
		}
	}
	// worse is the change's relative regression (positive = worse).
	worse := (cm - bm) / bm
	if higherBetter {
		worse = -worse
	}
	spread := (bq3 - bq1) / bm
	switch {
	case float64(v.wins) >= 0.9*float64(len(bv)) && better(cm, bm) && math.Abs(cm-bm) > bq3-bq1:
		v.verdict = "improved"
	case spread > bound && !allBetter:
		v.verdict = "unresolved"
	case worse > bound:
		v.verdict = "worse"
	default:
		v.verdict = "no worse"
	}
	return v
}
