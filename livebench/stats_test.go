package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{1000, 0.99, true, 990}, // exactly 10 beyond
		{999, 0.99, false, 0},   // 9 beyond
		{100, 0.90, true, 90},   // 10 beyond
		{100, 0.95, false, 0},   // 5 beyond
		{20, 0.50, true, 10},    // 10 beyond the median
		{19, 0.50, false, 0},
		{0, 0.50, false, 0},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileLeavesInputAlone(t *testing.T) {
	xs := []float64{5, 3, 1, 4, 2, 9, 8, 7, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}
	before := append([]float64(nil), xs...)
	percentile(xs, 0.5)
	median(xs)
	for i := range xs {
		if xs[i] != before[i] {
			t.Fatalf("input reordered: %v", xs)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
}

func TestReportRefusedTailIsAViolation(t *testing.T) {
	r := &report{workload: "w"}
	r.timing(false, "x_%s_ms", "ms", seq(500), 0.99)
	if len(r.endToEnd) != 1 || r.endToEnd[0].Name != "x_p50_ms" {
		t.Fatalf("metrics = %+v, want only x_p50_ms", r.endToEnd)
	}
	if len(r.violations) != 1 || !strings.Contains(r.violations[0], "x_p99_ms") {
		t.Fatalf("violations = %v, want one naming x_p99_ms", r.violations)
	}
}

func TestRatioBase(t *testing.T) {
	if v := (ratio{3, 0}).value(); v != 0 {
		t.Errorf("ratio with no base = %v, want 0", v)
	}
	r := &report{traced: true}
	r.share(true, "pop.hit_ratio", ratio{90, 120}, "pop.segment_requests")
	m := r.perLayer[0]
	if m.Value != 0.75 || m.Note != "90 of pop.segment_requests=120" {
		t.Errorf("share = %+v", m)
	}
}

// TestPOPDeltaBases checks the counters the POP ratios divide by: growth
// summed over every POP, warm-ups cumulative since launch, and the
// largest playlist age.
func TestPOPDeltaBases(t *testing.T) {
	s0 := snap{POPs: []popSnap{{Fills: 10, SingleFlightHits: 1, StaleServes: 5, Warmups: 4}, {Fills: 7, PeerFills: 2, Warmups: 4}}}
	s1 := snap{POPs: []popSnap{
		{Fills: 15, SingleFlightHits: 4, StaleServes: 9, Warmups: 4, MaxPlaylistAgeNS: 100},
		{Fills: 9, PeerFills: 3, Warmups: 6, MaxPlaylistAgeNS: 300},
	}}
	d := popDelta(s0, s1)
	want := popSnap{Fills: 7, SingleFlightHits: 3, StaleServes: 4, PeerFills: 1, Warmups: 10, MaxPlaylistAgeNS: 300}
	if d != want {
		t.Errorf("popDelta = %+v, want %+v", d, want)
	}
}

// resultLine runs write and decodes its last line.
func resultLine(t *testing.T, r *report) (out struct {
	Correct           bool
	Attempted, Failed int64
	Metrics           map[string]struct {
		Value float64
		Unit  string
	}
}) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	return out
}

// TestReportJSONCarriesOneSection checks that the result line carries
// exactly the end_to_end metrics untraced and the per_layer ones traced,
// whatever else the workload measured.
func TestReportJSONCarriesOneSection(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r := &report{tally: tally{attempted: 10, failed: 1}, workload: "w", traced: traced}
		for _, rm := range endToEndResult {
			r.value(false, rm.Name, rm.Unit, 1.5, "")
		}
		for _, rm := range perLayerResult {
			r.value(true, rm.Name, rm.Unit, 2.5, "")
		}
		r.value(false, "only_printed_ms", "ms", 3.5, "")
		want := endToEndResult
		if traced {
			want = perLayerResult
		}
		out := resultLine(t, r)
		if len(out.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(out.Metrics), len(want))
		}
		for _, rm := range want {
			if m, ok := out.Metrics[rm.Name]; !ok || m.Unit != rm.Unit {
				t.Errorf("traced=%v: %s = %+v, %v; want unit %s", traced, rm.Name, m, ok, rm.Unit)
			}
		}
		if !out.Correct || out.Attempted != 10 || out.Failed != 1 {
			t.Errorf("traced=%v: %+v", traced, out)
		}
	}
}

// TestReportMissingResultMetricIsIncorrect checks that a run which did not
// measure a result metric, or measured it in another unit, is incorrect.
func TestReportMissingResultMetricIsIncorrect(t *testing.T) {
	r := &report{tally: tally{attempted: 1}, workload: "w"}
	for _, rm := range endToEndResult[1:] {
		r.value(false, rm.Name, rm.Unit, 1, "")
	}
	if out := resultLine(t, r); out.Correct {
		t.Errorf("missing %s: result is correct", endToEndResult[0].Name)
	}
	r = &report{tally: tally{attempted: 1}, workload: "w"}
	for _, rm := range endToEndResult {
		r.value(false, rm.Name, "furlongs", 1, "")
	}
	if out := resultLine(t, r); out.Correct {
		t.Error("wrong units: result is correct")
	}
}

// TestResultMatchesManifest checks that the result lists are
// BENCHMARK.json's end_to_end and per_layer lists, in the same order and
// with the same units.
func TestResultMatchesManifest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		EndToEnd []resultMetric `json:"end_to_end"`
		PerLayer []resultMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		got, want []resultMetric
	}{
		{"end_to_end", endToEndResult, man.EndToEnd},
		{"per_layer", perLayerResult, man.PerLayer},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s: benchmark reports %v, BENCHMARK.json lists %v", tc.name, tc.got, tc.want)
		}
	}
}

// TestCPURates checks that only intervals inside the window count and
// that each rate is CPU time over wall time.
func TestCPURates(t *testing.T) {
	at := func(ms int64) time.Time { return time.Unix(0, ms*1e6) }
	samples := []cpuSample{
		{AtNS: 0, CPUNS: 0},
		{AtNS: 500e6, CPUNS: 100e6},  // before the window opens
		{AtNS: 1000e6, CPUNS: 150e6}, // 0.1 cores
		{AtNS: 1500e6, CPUNS: 350e6}, // 0.4 cores
		{AtNS: 2000e6, CPUNS: 400e6}, // ends after the window closes
	}
	got := cpuRates(samples, at(500), at(1800))
	want := []float64{0.1, 0.4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cpuRates = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "poll", Dur: 10 * time.Millisecond},
		{ID: 2, Parent: 1, Req: 1, Name: "get", Dur: 3 * time.Millisecond},
		{ID: 3, Parent: 1, Req: 1, Name: "get", Dur: 4 * time.Millisecond},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	if p := got["poll"]; p.Self != 3*time.Millisecond || p.Total != 10*time.Millisecond || p.Count != 1 {
		t.Errorf("poll = %+v, want self 3ms of 10ms", p)
	}
	if g := got["get"]; g.Self != 7*time.Millisecond || g.Count != 2 {
		t.Errorf("get = %+v, want self 7ms over 2", g)
	}
}

func TestNilSpanLogRecordsNothing(t *testing.T) {
	var l *spanLog
	if id := l.newID(); id != 0 {
		t.Errorf("nil log id = %d", id)
	}
	l.record(1, 0, 1, "x", time.Now(), time.Millisecond) // must not panic
	if logs := newSpanLogs(2, false, time.Now()); logs[0] != nil || logs[1] != nil {
		t.Error("untraced run got span logs")
	}
}
