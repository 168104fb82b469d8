package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// quartiles returns Q1, Q2, Q3 as Python's statistics.quantiles(v, n=4)
// does (its default "exclusive" method), which is what the driver computes
// a metric's spread from.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// apart is the largest distance between any two of the medians, as a share
// of the smallest. It has no direction: two sets of runs of the same code
// that differ by more than the bound are noise the bound does not cover,
// whichever of them reads better.
func apart(medians []float64) float64 {
	lo, hi := medians[0], medians[0]
	for _, m := range medians {
		lo, hi = math.Min(lo, m), math.Max(hi, m)
	}
	return ratio(hi-lo, lo)
}

// runRepeat runs SETS sets of RUNS runs of every workload, each run a fresh
// process with seed -seed+run (the same seeds in every set), and prints for
// each workload × end-to-end metric every set's median, how far apart the
// medians are, the widest spread (IQR over median) of any set, and the bound.
// A metric is "apart" when the medians differ by more than its bound and
// "unresolved" when a set's own spread is wider than the bound (setup_s is
// held on the medians only, as the driver holds it). It returns 1 if any row
// is either, or any op failed.
func runRepeat(cfg config, spec string, out io.Writer) int {
	parts := strings.Split(strings.ToLower(spec), "x")
	sets, err1 := strconv.Atoi(parts[0])
	runs := 0
	var err2 error = fmt.Errorf("missing RUNS")
	if len(parts) == 2 {
		runs, err2 = strconv.Atoi(parts[1])
	}
	if err1 != nil || err2 != nil || sets < 2 || runs < 1 {
		fmt.Fprintf(os.Stderr, "bench: -repeat wants SETSxRUNS with SETS >= 2, got %q\n", spec)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	names := workloadNames(cfg.workload)

	// values[workload][metric][set] holds the runs of one set; bg_passes
	// rides along, ungated, from the meta line.
	const passes = "core.bg_passes"
	values := map[string]map[string][][]float64{}
	var metaLine string
	failed := false
	for set := 0; set < sets; set++ {
		for _, name := range names {
			for run := 0; run < runs; run++ {
				cmd := exec.Command(self,
					"-workload", name, "-seed", strconv.FormatInt(cfg.seed+int64(run), 10),
					"-seconds", strconv.Itoa(cfg.seconds), "-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64), "-trace", "0")
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				res, meta, perr := parseResult(stdout)
				if perr != nil || (err != nil && res == nil) {
					fmt.Fprintf(os.Stderr, "bench: %s set %d run %d: %v %v\n", name, set+1, run+1, err, perr)
					return 1
				}
				metaLine = meta.line
				if !res.Correct {
					failed = true
				}
				fmt.Fprintf(out, "# set %d  %-13s seed %d  %.1f s  failed %d of %d ", set+1, name, cfg.seed+int64(run), meta.WallS, res.Failed, res.Attempted)
				for _, d := range endToEndDefs {
					fmt.Fprintf(out, " %s=%.5g", d.name, res.Metrics[d.name].Value)
				}
				fmt.Fprintf(out, " %s=%d\n", passes, meta.BgPasses)
				if values[name] == nil {
					values[name] = map[string][][]float64{passes: make([][]float64, sets)}
				}
				values[name][passes][set] = append(values[name][passes][set], float64(meta.BgPasses))
				for metric, v := range res.Metrics {
					if values[name][metric] == nil {
						values[name][metric] = make([][]float64, sets)
					}
					values[name][metric][set] = append(values[name][metric][set], v.Value)
				}
			}
		}
	}

	fmt.Fprintf(out, "\n%s\n| workload | metric | unit |", metaLine)
	for set := 1; set <= sets; set++ {
		fmt.Fprintf(out, " median set %d |", set)
	}
	fmt.Fprintf(out, " apart | widest spread | bound | |\n|---|---|---|%s---|---|---|---|\n", strings.Repeat("---|", sets))
	row := func(name, metric, unit string, bound float64) {
		medians := make([]float64, sets)
		var widest float64
		for set, v := range values[name][metric] {
			q1, q2, q3 := quartiles(v)
			medians[set], widest = q2, math.Max(widest, ratio(q3-q1, q2))
		}
		verdict, limit := "ok", fmt.Sprintf("%.0f%%", 100*bound)
		switch {
		case bound == 0:
			verdict, limit = "not gated", "-"
		case metric != "setup_s" && widest > bound:
			verdict, failed = "unresolved", true
		case apart(medians) > bound:
			verdict, failed = "apart", true
		}
		fmt.Fprintf(out, "| %s | %s | %s |", name, metric, unit)
		for _, m := range medians {
			fmt.Fprintf(out, " %.6g |", m)
		}
		fmt.Fprintf(out, " %.2f%% | %.2f%% | %s | %s |\n", 100*apart(medians), 100*widest, limit, verdict)
	}
	for _, name := range names {
		for _, d := range endToEndDefs {
			row(name, d.name, d.unit, d.bound)
		}
		if w, _ := workloadByName(name); w != nil && w.inline {
			row(name, passes, "count", 0)
		}
	}
	if failed {
		return 1
	}
	return 0
}

type resultLine struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runMeta is what a -repeat reads off a run's #meta line.
type runMeta struct {
	line     string
	WallS    float64 `json:"wall_s"`
	BgPasses uint64  `json:"bg_passes"`
}

// parseResult reads a run's last line (the result object) and its #meta
// line.
func parseResult(stdout []byte) (*resultLine, runMeta, error) {
	var last string
	var meta runMeta
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "#meta ") {
			meta.line = line
		} else if line != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(meta.line, "#meta ")), &meta); err != nil {
		return nil, meta, fmt.Errorf("no #meta line: %w", err)
	}
	var res resultLine
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, meta, fmt.Errorf("no result line: %w", err)
	}
	return &res, meta, nil
}
