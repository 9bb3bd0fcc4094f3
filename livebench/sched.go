package main

import (
	"container/heap"
	"math/rand"
	"sort"
	"syscall"
	"time"
)

// viewerPlan is one logical HLS viewer of flash-crowd: which broadcast it
// watches, when it arrives, and the phase of its polls within the poll
// interval (offsets from the window start).
type viewerPlan struct {
	Broadcast int
	Arrive    time.Duration
	Phase     time.Duration
}

// flashSchedule spreads n viewers evenly over the broadcasts and over an
// arrival ramp, with arrival jitter and poll phases drawn from seed.
func flashSchedule(seed int64, n, broadcasts int, ramp, poll time.Duration) []viewerPlan {
	rng := rand.New(rand.NewSource(seed))
	plans := make([]viewerPlan, n)
	for i := range plans {
		plans[i] = viewerPlan{
			Broadcast: i % broadcasts,
			Arrive:    time.Duration((float64(i) + rng.Float64()) / float64(n) * float64(ramp)),
			Phase:     time.Duration(rng.Int63n(int64(poll))),
		}
	}
	return plans
}

// rotationPhases staggers n polled streams over one poll interval, in a
// seed-dependent order with seed-dependent jitter.
func rotationPhases(seed int64, n int, poll time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(n)
	phases := make([]time.Duration, n)
	for slot, i := range order {
		phases[i] = time.Duration((float64(slot) + rng.Float64()) / float64(n) * float64(poll))
	}
	return phases
}

// API call kinds of api-churn, and the mix in calls per 10.
const (
	apiMapGeo = iota
	apiGetBroadcasts
	apiAccessVideo
	apiTeleport
	apiPlaybackMeta
	apiKinds
)

// apiNames are the gateway's endpoint names, by kind.
var apiNames = [apiKinds]string{"mapGeoBroadcastFeed", "getBroadcasts", "accessVideo", "teleport", "playbackMeta"}

// apiMix is each kind's share of calls, in tenths.
var apiMix = [apiKinds]int{4, 3, 1, 1, 1}

// apiCall is one scheduled API call of api-churn.
type apiCall struct {
	At      time.Duration // offset from the window start
	Session int
	Kind    int
}

// apiSchedule lays out rate calls per second for the window over the
// given sessions: each session calls once per sessions/rate seconds at a
// seed-drawn phase, and the kinds follow apiMix exactly, in a seed-drawn
// order. The result is sorted by time.
func apiSchedule(seed int64, rate, sessions int, window time.Duration) []apiCall {
	rng := rand.New(rand.NewSource(seed))
	n := int(float64(rate) * window.Seconds())
	kinds := make([]int, 0, n)
	for k := 0; k < apiKinds; k++ {
		for i := 0; i < n*apiMix[k]/10; i++ {
			kinds = append(kinds, k)
		}
	}
	for len(kinds) < n {
		kinds = append(kinds, apiMapGeo)
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	period := time.Duration(float64(time.Second) * float64(sessions) / float64(rate))
	phases := make([]time.Duration, sessions)
	for s := range phases {
		phases[s] = time.Duration(rng.Int63n(int64(period)))
	}
	calls := make([]apiCall, 0, n)
	for k := 0; len(calls) < n; k++ {
		for s := 0; s < sessions && len(calls) < n; s++ {
			at := phases[s] + time.Duration(k)*period
			if at >= window {
				continue
			}
			calls = append(calls, apiCall{At: at, Session: s})
		}
		if time.Duration(k)*period >= window {
			break
		}
	}
	sortCalls(calls)
	for i := range calls {
		calls[i].Kind = kinds[i]
	}
	return calls
}

// sortCalls orders calls by time, then session: a total order, so equal
// seeds give equal schedules.
func sortCalls(calls []apiCall) {
	sort.Slice(calls, func(i, j int) bool {
		if calls[i].At != calls[j].At {
			return calls[i].At < calls[j].At
		}
		return calls[i].Session < calls[j].Session
	})
}

// event is one due action of a logical client in an open-loop run.
type event struct {
	due  time.Time
	idx  int // which logical client
	kind int
	seq  uint64 // insertion order, to break ties deterministically
}

// eventQueue runs events in due order. It is an open loop: an action's
// follow-up is scheduled from its due time, never from when the previous
// action finished, so a slow service receives the same load.
type eventQueue struct {
	h    evHeap
	next uint64
	// lateMS records how far behind its due time each event started.
	lateMS []float64
}

func (q *eventQueue) push(e event) {
	q.next++
	e.seq = q.next
	heap.Push(&q.h, e)
}

// run executes events due before end, sleeping until each is due. Events
// due later stay queued.
func (q *eventQueue) run(end time.Time, do func(event)) {
	for q.h.Len() > 0 && q.h[0].due.Before(end) {
		e := heap.Pop(&q.h).(event)
		sleepUntil(e.due)
		q.lateMS = append(q.lateMS, float64(time.Since(e.due))/1e6)
		do(e)
	}
}

// sleepUntil blocks the calling goroutine's thread until t in a
// nanosleep. time.Sleep wakes up to a millisecond late, because the
// runtime's network poller waits in whole milliseconds; at sub-millisecond
// service times that error would be most of what latency measured from
// the due time reports.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		// EINTR (the runtime's preemption signal) just loops.
		syscall.Nanosleep(&ts, nil)
	}
}

type evHeap []event

func (h evHeap) Len() int { return len(h) }
func (h evHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h evHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *evHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *evHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
