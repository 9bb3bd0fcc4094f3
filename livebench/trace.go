package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call across a layer boundary. Spans of one logical
// request share Req; Parent is the span that caused this one (0 for a
// root).
type span struct {
	ID, Parent, Req uint64
	Name            string
	Start, Dur      time.Duration // Start is relative to the tracer's epoch
}

// spanLog records spans for one goroutine without locking; a run merges
// the logs of its goroutines when it ends. A nil *spanLog records nothing,
// which is how untraced runs pay no tracing cost.
type spanLog struct {
	epoch time.Time
	// idBase keeps span ids of different goroutines' logs disjoint.
	idBase, next uint64
	spans        []span
}

// newSpanLogs returns n logs sharing one epoch, or n nil logs when
// tracing is off.
func newSpanLogs(n int, traced bool, epoch time.Time) []*spanLog {
	logs := make([]*spanLog, n)
	if traced {
		for i := range logs {
			logs[i] = &spanLog{epoch: epoch, idBase: uint64(i+1) << 48}
		}
	}
	return logs
}

// newID allocates a span or request id.
func (l *spanLog) newID() uint64 {
	if l == nil {
		return 0
	}
	l.next++
	return l.idBase | l.next
}

// record adds a finished span and returns its id.
func (l *spanLog) record(id, parent, req uint64, name string, start time.Time, dur time.Duration) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start.Sub(l.epoch), Dur: dur})
}

// layerTime is the busy time of one span name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // Total minus the time covered by child spans
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus its children's; children of one parent never overlap, since each
// goroutine issues its calls one at a time.
func selfTimes(spans []span) []layerTime {
	childDur := map[uint64]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			childDur[s.Parent] += s.Dur
		}
	}
	by := map[string]*layerTime{}
	for _, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		lt.Count++
		lt.Total += s.Dur
		lt.Self += s.Dur - childDur[s.ID]
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// mergeSpans concatenates the logs' spans in start order.
func mergeSpans(logs []*spanLog) []span {
	var all []span
	for _, l := range logs {
		if l != nil {
			all = append(all, l.spans...)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"dur_ns":%d}`+"\n",
			s.ID, s.Parent, s.Req, s.Name, s.Start.Nanoseconds(), s.Dur.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCost measures what recording one span costs, so a traced run can
// state its own overhead: the span count times this cost, per second.
func spanCost() time.Duration {
	const n = 200_000
	l := &spanLog{epoch: time.Now(), spans: make([]span, 0, 1024)}
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		id := l.newID()
		l.record(id, 0, id, "cost", t0, time.Since(t0))
		if len(l.spans) == cap(l.spans) {
			l.spans = l.spans[:0]
		}
	}
	return time.Since(start) / n
}
