// Command perfbench is the repository's benchmark: it times the ZKDET data
// exchange end to end on three workloads (seller, exchange, audit) and,
// in a separate traced run, splits that time across the layers. See
// README.md for the workloads, the metrics and what each should move.
//
//	go run . --workload seller --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart anchors setup_s: package initialisation runs before main.
var processStart = time.Now()

type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
}

// outDir receives span dumps and the exchange workload's data dir. It is
// under .bench_build/, which the repository ignores.
const outDir = ".bench_build/perfbench"

// Metric is one named value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// endToEnd lists the metrics an untraced run reports, in BENCHMARK.json
// order. Every workload reports all of them; what "one operation" is
// differs per workload (README.md).
var endToEnd = []struct{ name, unit string }{
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// report is what a workload hands back for printing.
type report struct {
	attempted, failed int
	failures          []string // first few reasons
	setupEnd          time.Time
	// ops holds per-operation latencies (ms) of the untraced operations.
	ops     []float64
	opsPerS float64
	// peakRSS is peakRSSMB() read when the timed work ends, before any
	// gate that runs after it.
	peakRSS float64
	// named are the workload's own end-to-end metrics (README.md), printed
	// with their sample counts.
	named []named
	// layer holds per-layer metrics; only traced runs fill most of it.
	layer map[string]float64
	// props are the input properties a later change could depend on.
	props  []named
	tracer *Tracer
}

type named struct {
	name, unit string
	s          Summary
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) metric(name, unit string, xs []float64) {
	r.named = append(r.named, named{name, unit, Summarize(xs)})
}

func (r *report) value(name, unit string, v float64) {
	r.named = append(r.named, named{name, unit, Summary{N: 1, Median: v, TailPct: 100, Tail: v}})
}

func (r *report) prop(name, unit string, v float64) {
	r.props = append(r.props, named{name, unit, Summary{N: 1, Median: v}})
}

func main() {
	cfg := config{}
	var seconds, traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "seller, exchange or audit")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 12, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = traceFlag == 1
	if seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive, --trace 0 or 1")
		os.Exit(2)
	}

	run := map[string]func(config) (*report, error){
		"seller":   runSeller,
		"exchange": runExchange,
		"audit":    runAudit,
	}[cfg.workload]
	if run == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (seller, exchange, audit)\n", cfg.workload)
		os.Exit(2)
	}
	printEnv(cfg)
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// emit prints the human-readable metric lines and the final JSON line.
func emit(cfg config, rep *report) error {
	ops := Summarize(rep.ops)
	if ops.N == 0 {
		return fmt.Errorf("%s: no operation completed in the window", cfg.workload)
	}
	e2e := map[string]float64{
		"op_p50_ms":   ops.Median,
		"op_p99_ms":   ops.Tail,
		"ops_per_s":   rep.opsPerS,
		"setup_s":     rep.setupEnd.Sub(processStart).Seconds(),
		"peak_rss_mb": rep.peakRSS,
	}
	for _, m := range endToEnd {
		n, note := 1, ""
		switch m.name {
		case "op_p50_ms":
			n = ops.N
		case "op_p99_ms":
			n, note = ops.N, fmt.Sprintf(" p=%d", ops.TailPct)
		}
		fmt.Printf("metric %-22s %14.4f %-5s n=%d%s\n", m.name, e2e[m.name], m.unit, n, note)
	}
	for _, m := range rep.named {
		fmt.Printf("metric %-22s %14.4f %-5s n=%d", m.name, m.s.Median, m.unit, m.s.N)
		if m.s.N > 1 {
			fmt.Printf(" p%d=%.4f", m.s.TailPct, m.s.Tail)
		}
		fmt.Println()
	}
	for _, p := range rep.props {
		fmt.Printf("input  %-22s %14.4f %s\n", p.name, p.s.Median, p.unit)
	}
	for _, f := range rep.failures {
		fmt.Println("failure", f)
	}

	res := Result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]Metric{}}
	if !cfg.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = Metric{e2e[m.name], m.unit}
		}
	} else {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := rep.tracer.WriteJSONL(path); err != nil {
			return err
		}
		fmt.Println("spans", path)
		names := make([]string, 0, len(perLayer))
		for name := range perLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := rep.layer[name]
			fmt.Printf("layer  %-26s %14.6f %s\n", name, v, perLayer[name])
			res.Metrics[name] = Metric{v, perLayer[name]}
		}
		for name := range rep.layer {
			if _, ok := perLayer[name]; !ok {
				return fmt.Errorf("per-layer metric %q is not declared", name)
			}
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endSetup collects the garbage set-up left behind, as testing.B does
// before a benchmark, and returns the end of set-up.
func endSetup() time.Time {
	runtime.GC()
	return time.Now()
}

// printEnv records the environment with every result.
func printEnv(cfg config) {
	env := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.window.Seconds(),
		"trace":      cfg.trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     sourceDigest("."),
	}
	if cfg.workload == "exchange" {
		env["exchange_rate"] = exchangeRate
	}
	b, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Println("env", string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest identifies the code under test. The benchmark runs from
// checkouts that are not git repositories, so instead of a commit hash it
// hashes the module's Go sources and go.mod under root.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "perfbench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
			h.Write(data)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeSample reads the Go runtime's cumulative allocation and CPU
// counters; deltas over a traced window give mem.alloc_mb_per_op and
// cpu.gc_frac.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2)}
}

// runtimeLayer fills the Go-runtime metrics for ops operations between
// two samples.
func runtimeLayer(layer map[string]float64, before, after runtimeSample, ops int) {
	if ops > 0 {
		layer["mem.alloc_mb_per_op"] = (after.allocBytes - before.allocBytes) / float64(ops) / (1 << 20)
	}
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		layer["cpu.gc_frac"] = (after.gcCPU - before.gcCPU) / cpu
	}
}
