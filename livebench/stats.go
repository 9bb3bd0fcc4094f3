package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail estimated from fewer is noise, so the benchmark refuses it.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). ok is
// false when fewer than minTail samples lie strictly beyond the rank, in
// which case the value must not be reported. xs is not modified.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if n-rank < minTail {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a share with its base: Num of Base outcomes.
type ratio struct {
	Num, Base int64
}

// value is Num/Base, or 0 with no base.
func (r ratio) value() float64 {
	if r.Base == 0 {
		return 0
	}
	return float64(r.Num) / float64(r.Base)
}

// metric is one reported quantity.
type metric struct {
	Name  string
	Unit  string
	Value float64
	// N is the sample count behind a timing; Note says what a ratio's base
	// is or how the value was formed.
	N    int
	Note string
}

// maxKept caps how many failure and violation messages are kept.
const maxKept = 20

// tally counts operations and keeps the first messages of failed ones
// (a failure is counted, not a wrong output) and of wrong outputs (any of
// which makes the run incorrect). One goroutine owns each tally.
type tally struct {
	attempted, failed    int64
	failures, violations []string
}

// fail counts a failed operation.
func (t *tally) fail(err error) {
	t.failed++
	t.failures = keep(t.failures, err.Error())
}

// violate records a wrong output.
func (t *tally) violate(format string, args ...any) {
	t.violations = keep(t.violations, fmt.Sprintf(format, args...))
}

// merge adds another tally's counts and messages.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.failures = keep(t.failures, o.failures...)
	t.violations = keep(t.violations, o.violations...)
}

// keep appends msgs to list up to maxKept entries.
func keep(list []string, msgs ...string) []string {
	for _, m := range msgs {
		if len(list) >= maxKept {
			break
		}
		list = append(list, m)
	}
	return list
}

// report collects a run's metrics and the tally of all its operations.
type report struct {
	tally
	workload string
	traced   bool
	endToEnd []metric
	perLayer []metric
}

func (r *report) add(layer bool, m metric) {
	if layer {
		r.perLayer = append(r.perLayer, m)
	} else {
		r.endToEnd = append(r.endToEnd, m)
	}
}

// value adds a plain metric.
func (r *report) value(layer bool, name, unit string, v float64, note string) {
	r.add(layer, metric{Name: name, Unit: unit, Value: v, Note: note})
}

// timing adds the median and the q-percentile of samples. name holds one
// %s, which becomes "p50" and "pQQ": "hls_g2g_%s_ms" gives hls_g2g_p50_ms
// and hls_g2g_p99_ms. A percentile with too thin a tail is refused and
// recorded as a violation, since the run then cannot say what it set out
// to measure.
func (r *report) timing(layer bool, name, unit string, xs []float64, q float64) {
	label := fmt.Sprintf(name, "p50")
	r.add(layer, metric{Name: label, Unit: unit, Value: median(xs), N: len(xs)})
	if len(xs) < 2*minTail {
		r.violate("%s: %d samples, too few for a median", label, len(xs))
	}
	r.tail(layer, name, unit, xs, q)
}

// tail adds only the q-percentile of samples; name is as for timing.
func (r *report) tail(layer bool, name, unit string, xs []float64, q float64) {
	label := fmt.Sprintf(name, fmt.Sprintf("p%d", int(math.Round(q*100))))
	v, ok := percentile(xs, q)
	if !ok {
		r.violate("%s: %d samples leave fewer than %d beyond it", label, len(xs), minTail)
		return
	}
	r.add(layer, metric{Name: label, Unit: unit, Value: v, N: len(xs)})
}

// share adds a ratio; its note names the base it was divided by.
func (r *report) share(layer bool, name string, rt ratio, baseName string) {
	r.add(layer, metric{Name: name, Unit: "ratio", Value: rt.value(),
		Note: fmt.Sprintf("%d of %s=%d", rt.Num, baseName, rt.Base)})
}

// count adds a count metric.
func (r *report) count(layer bool, name string, n int64) {
	r.add(layer, metric{Name: name, Unit: "count", Value: float64(n)})
}

// resultMetric names a metric of the result line, with its unit.
type resultMetric struct{ Name, Unit string }

// endToEndResult and perLayerResult are BENCHMARK.json's end_to_end and
// per_layer lists: the result line of an untraced and a traced run
// carries exactly these, on every workload, so they are the metrics every
// workload measures. The others a workload measures (glass-to-glass,
// join, stall and API latency among them) are printed above the result
// line only.
var (
	endToEndResult = []resultMetric{
		{"setup_s", "s"},
		{"server_cpu_cores", "cores"},
		{"peak_rss_mb", "MB"},
	}
	perLayerResult = []resultMetric{
		{"runtime.gc_cpu_fraction", "ratio"},
		{"runtime.alloc_bytes_per_s", "B/s"},
		{"gen.late_p50_ms", "ms"},
		{"gen.late_p99_ms", "ms"},
		{"gen.cpu_cores", "cores"},
		{"service.snapshot_us", "us"},
		{"hub.drops", "count"},
		{"hub.resyncs", "count"},
		{"hub.hopeless", "count"},
		{"pop.fills", "count"},
		{"pop.peer_fills", "count"},
		{"pop.single_flight_hits", "count"},
		{"pop.stale_serves", "count"},
		{"pop.fill_cap_waits", "count"},
		{"pop.fill_errors", "count"},
		{"pop.fill_retries", "count"},
		{"origin.playlist_requests_per_s", "1/s"},
		{"origin.segment_requests_per_s", "1/s"},
		{"chat.messages_out_per_s", "1/s"},
		{"chat.queue_drops", "count"},
		{"trace.spans", "count"},
		{"trace.ns_per_span", "ns"},
		{"trace.overhead_cpu_cores", "cores"},
	}
)

// write prints every metric as a readable line, then the one-line JSON
// result: the end_to_end metrics for an untraced run, the per_layer
// metrics for a traced one. The readable lines mark the metrics the
// result carries with "*". A result metric the run did not measure, or
// measured in another unit, makes the run incorrect.
func (r *report) write(w io.Writer) error {
	want := endToEndResult
	if r.traced {
		want = perLayerResult
	}
	inResult := map[string]bool{}
	for _, rm := range want {
		inResult[rm.Name] = true
	}
	measured := map[string]metric{}
	for _, ms := range [][]metric{r.endToEnd, r.perLayer} {
		for _, m := range ms {
			measured[m.Name] = m
		}
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	results := map[string]jsonMetric{}
	for _, rm := range want {
		m, ok := measured[rm.Name]
		switch {
		case !ok:
			r.violate("%s: not measured on workload %s", rm.Name, r.workload)
		case m.Unit != rm.Unit:
			r.violate("%s: measured in %s, the result wants %s", rm.Name, m.Unit, rm.Unit)
		default:
			results[rm.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
		}
	}

	fmt.Fprintf(w, "workload %s (traced=%v): attempted %d, failed %d (failed_ratio %.6f)\n",
		r.workload, r.traced, r.attempted, r.failed, ratio{r.failed, r.attempted}.value())
	section := func(title string, ms []metric) {
		fmt.Fprintf(w, "%s:\n", title)
		for _, m := range ms {
			var extra []string
			if m.N > 0 {
				extra = append(extra, fmt.Sprintf("n=%d", m.N))
			}
			if m.Note != "" {
				extra = append(extra, m.Note)
			}
			suffix := ""
			if len(extra) > 0 {
				suffix = "  (" + strings.Join(extra, ", ") + ")"
			}
			mark := " "
			if inResult[m.Name] {
				mark = "*"
			}
			fmt.Fprintf(w, "%s %-40s %14.4f %s%s\n", mark, m.Name, m.Value, m.Unit, suffix)
		}
	}
	section("end-to-end", r.endToEnd)
	section("per-layer", r.perLayer)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	for _, v := range r.violations {
		fmt.Fprintf(w, "VIOLATION: %s\n", v)
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   len(r.violations) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   results,
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
