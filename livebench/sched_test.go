package main

import (
	"reflect"
	"testing"
	"time"
)

func TestFlashScheduleIsSeeded(t *testing.T) {
	a := flashSchedule(7, 400, 8, 10*time.Second, time.Second)
	b := flashSchedule(7, 400, 8, 10*time.Second, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different flash-crowd schedules")
	}
	if c := flashSchedule(8, 400, 8, 10*time.Second, time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same flash-crowd schedule")
	}
	perBroadcast := map[int]int{}
	for i, p := range a {
		perBroadcast[p.Broadcast]++
		if p.Arrive < 0 || p.Arrive >= 10*time.Second {
			t.Errorf("viewer %d arrives at %v, outside the ramp", i, p.Arrive)
		}
		if p.Phase < 0 || p.Phase >= time.Second {
			t.Errorf("viewer %d poll phase %v outside the poll interval", i, p.Phase)
		}
		if i > 0 && p.Arrive < a[i-1].Arrive {
			t.Errorf("arrivals out of order at viewer %d", i)
		}
	}
	for b, n := range perBroadcast {
		if n != 50 {
			t.Errorf("broadcast %d has %d viewers, want 50", b, n)
		}
	}
}

func TestRotationPhasesAreSeededAndSpread(t *testing.T) {
	a := rotationPhases(3, 100, time.Second)
	if !reflect.DeepEqual(a, rotationPhases(3, 100, time.Second)) {
		t.Fatal("same seed gave different phases")
	}
	if reflect.DeepEqual(a, rotationPhases(4, 100, time.Second)) {
		t.Fatal("different seeds gave the same phases")
	}
	slots := map[int]bool{}
	for _, p := range a {
		if p < 0 || p >= time.Second {
			t.Fatalf("phase %v outside the poll interval", p)
		}
		slots[int(p/(10*time.Millisecond))] = true
	}
	if len(slots) != 100 {
		t.Errorf("phases fill %d of 100 slots, want one per slot", len(slots))
	}
}

func TestAPISchedule(t *testing.T) {
	const rate, sessions = 500, 1000
	window := 20 * time.Second
	a := apiSchedule(11, rate, sessions, window)
	if !reflect.DeepEqual(a, apiSchedule(11, rate, sessions, window)) {
		t.Fatal("same seed gave different API schedules")
	}
	if reflect.DeepEqual(a, apiSchedule(12, rate, sessions, window)) {
		t.Fatal("different seeds gave the same API schedule")
	}
	n := rate * int(window.Seconds())
	if len(a) != n {
		t.Fatalf("%d calls, want %d", len(a), n)
	}
	var kinds [apiKinds]int
	last := map[int]time.Duration{}
	period := time.Duration(float64(time.Second) * sessions / rate)
	for i, c := range a {
		kinds[c.Kind]++
		if i > 0 && c.At < a[i-1].At {
			t.Fatalf("call %d out of time order", i)
		}
		if c.At < 0 || c.At >= window {
			t.Fatalf("call %d at %v outside the window", i, c.At)
		}
		// Every session stays under the gateway's per-session rate: its
		// calls are one period apart.
		if prev, ok := last[c.Session]; ok && c.At-prev != period {
			t.Fatalf("session %d calls %v apart, want %v", c.Session, c.At-prev, period)
		}
		last[c.Session] = c.At
	}
	for k, got := range kinds {
		if want := n * apiMix[k] / 10; got != want {
			t.Errorf("%s: %d calls, want %d", apiNames[k], got, want)
		}
	}
}

func TestEventQueueRunsInDueOrderAndKeepsLaterEvents(t *testing.T) {
	var q eventQueue
	now := time.Now()
	for i, d := range []time.Duration{30, 10, 20, 500} {
		q.push(event{due: now.Add(d * time.Millisecond), idx: i})
	}
	var order []int
	q.run(now.Add(100*time.Millisecond), func(e event) { order = append(order, e.idx) })
	if !reflect.DeepEqual(order, []int{1, 2, 0}) {
		t.Errorf("ran %v, want [1 2 0]", order)
	}
	if q.h.Len() != 1 || q.h[0].idx != 3 {
		t.Errorf("queue kept %v, want the event due after the end", q.h)
	}
	if len(q.lateMS) != 3 {
		t.Errorf("%d lateness samples, want 3", len(q.lateMS))
	}
}
