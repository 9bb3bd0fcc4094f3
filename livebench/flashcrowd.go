package main

import (
	"fmt"
	"sync"
	"time"

	"periscope/internal/api"
)

// flash-crowd shape: fcViewers logical HLS viewers arrive over fcRamp and
// then each polls its playlist every fcPoll. The ramp spans several
// segment durations of every broadcast, so joins sample many phases of
// each broadcast's segment and playlist-refresh cycles, and the stall
// ratio they add up to is an average rather than one draw.
const (
	fcViewers = 2000
	fcRamp    = 15 * time.Second
	fcPoll    = time.Second
)

// Event kinds of an HLS viewer.
const (
	evJoin = iota
	evPoll
)

// fcWorker serves the viewers of one POP over one connection.
type fcWorker struct {
	cl       *hlsClient
	q        eventQueue
	viewers  []*hlsViewer
	plans    []viewerPlan
	accessMS []float64 // Service.AccessVideo time inside the launcher
}

// runFlashCrowd drives the viewers of the promoted broadcasts, one
// goroutine and one keep-alive connection per POP.
func runFlashCrowd(rc *runCtx) error {
	info := rc.info
	plans := flashSchedule(rc.seed, fcViewers, len(info.Broadcasts), fcRamp, fcPoll)
	logs := newSpanLogs(len(info.POPBases), rc.traced, rc.epoch)
	workers := make([]*fcWorker, len(info.POPBases))
	for p := range workers {
		workers[p] = &fcWorker{cl: newHLSClient(logs[p])}
	}
	if rc.traced {
		if _, err := rc.ctl.call(ctlRequest{Op: opWatch}, nil); err != nil {
			return err
		}
	}
	b0, err := rc.mark()
	if err != nil {
		return err
	}
	start := b0.at
	end := start.Add(rc.window)
	for _, pl := range plans {
		bc := info.Broadcasts[pl.Broadcast]
		w := workers[bc.POP]
		v := &hlsViewer{bcast: bc.ID, base: bc.HLSBase, start: start.Add(pl.Arrive)}
		w.q.push(event{due: v.start, idx: len(w.viewers), kind: evJoin})
		w.viewers = append(w.viewers, v)
		w.plans = append(w.plans, pl)
	}
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *fcWorker) {
			defer wg.Done()
			w.run(rc, end)
		}(w)
	}
	wg.Wait()
	b1, err := rc.mark()
	if err != nil {
		return err
	}
	var watched watchResult
	if rc.traced {
		if _, err := rc.ctl.call(ctlRequest{Op: opWatchStop}, &watched); err != nil {
			return err
		}
	}

	r := rc.rep
	var all []*hlsViewer
	var g2g, playlistMS, segmentMS, accessMS, lateMS []float64
	var playlistReqs, segmentReqs int64
	for _, w := range workers {
		w.cl.hc.CloseIdleConnections()
		all = append(all, w.viewers...)
		g2g = append(g2g, w.cl.g2gMS...)
		playlistMS = append(playlistMS, w.cl.playlistMS...)
		segmentMS = append(segmentMS, w.cl.segmentMS...)
		accessMS = append(accessMS, w.accessMS...)
		lateMS = append(lateMS, w.q.lateMS...)
		playlistReqs += w.cl.playlistReqs
		segmentReqs += w.cl.segmentReqs
		r.merge(&w.cl.tally)
	}
	sess := playSessions(all, end)
	if sess.neverStart > 0 {
		r.violate("%d of %d viewers never started playback", sess.neverStart, sess.sessions)
	}
	r.timing(false, "hls_g2g_%s_ms", "ms", g2g, 0.99)
	r.timing(true, "hls_join_%s_ms", "ms", sess.joinMS, 0.99)
	// The crowd's stall ratio moves by 13-18 % (quartile spread) from run to
	// run: a run samples only a few dozen segment and playlist-refresh
	// cycles, which every viewer of a broadcast shares. That is too wide
	// for a bound, so it is reported without one.
	r.value(true, "crowd.stall_ratio", "ratio", sess.stallRatio(),
		fmt.Sprintf("stall %.1f s over %d sessions, play %.1f s", sess.stall.Seconds(), sess.sessions, sess.play.Seconds()))
	rc.checkPipelines(b1.snap, len(info.Broadcasts))
	rc.reportCommon(b0, b1, lateMS)
	if !rc.traced {
		return nil
	}

	d := popDelta(b0.snap, b1.snap)
	r.value(true, "pop.playlist_age_ms_max", "ms", float64(watched.MaxPlaylistAgeNS)/1e6,
		fmt.Sprintf("largest edge playlist age in %d snapshots, idle replicas included", watched.Samples))
	firstSeen := map[segKey]time.Time{}
	for _, w := range workers {
		for k, t := range w.cl.firstSeen {
			firstSeen[k] = t
		}
	}
	var lag []float64
	for _, c := range watched.Cuts {
		if t, ok := firstSeen[segKey{c.ID, c.Seq}]; ok {
			lag = append(lag, float64(t.Sub(time.Unix(0, c.AtNS)))/1e6)
		}
	}
	r.add(true, metric{Name: "pop.playlist_lag_ms_p50", Unit: "ms", Value: median(lag), N: len(lag),
		Note: "segment cut to its first listing in an edge playlist"})
	r.share(true, "pop.stale_serve_ratio", ratio{d.StaleServes, playlistReqs}, "pop.playlist_requests")
	r.timing(true, "pop.playlist_ms_%s", "ms", playlistMS, 0.99)
	r.timing(true, "pop.segment_ms_%s", "ms", segmentMS, 0.99)
	r.share(true, "pop.hit_ratio", ratio{segmentReqs - d.Fills - d.SingleFlightHits, segmentReqs}, "pop.segment_requests")
	r.share(true, "pop.single_flight_ratio", ratio{d.SingleFlightHits, segmentReqs}, "pop.segment_requests")
	r.share(true, "pop.peer_fill_ratio", ratio{d.PeerFills, d.Fills}, "pop.fills")
	r.count(true, "pop.playlist_requests", playlistReqs)
	r.count(true, "pop.segment_requests", segmentReqs)
	rc.reportOrigin(b0, b1, watched)
	r.timing(true, "service.access_ms_%s", "ms", accessMS, 0.99)
	return rc.reportTrace(logs)
}

// run executes the worker's viewer events until end.
func (w *fcWorker) run(rc *runCtx, end time.Time) {
	log := w.cl.log
	w.q.run(end, func(e event) {
		v := w.viewers[e.idx]
		req := log.newID()
		root := log.newID()
		t0 := time.Now()
		name := "viewer.poll"
		if e.kind == evJoin {
			name = "viewer.join"
			w.access(rc, v, root, req)
		}
		w.cl.poll(v, root, req)
		log.record(root, 0, req, name, t0, time.Since(t0))
		next := e.due.Add(fcPoll)
		if e.kind == evJoin {
			next = v.start.Add(w.plans[e.idx].Phase + fcPoll)
		}
		w.q.push(event{due: next, idx: e.idx, kind: evPoll})
	})
}

// access resolves a joining viewer through Service.AccessVideo, which
// must keep steering it to its broadcast's POP over HLS.
func (w *fcWorker) access(rc *runCtx, v *hlsViewer, parent, req uint64) {
	cl := w.cl
	cl.attempted++
	id := cl.log.newID()
	t0 := time.Now()
	var resp api.AccessVideoResponse
	ns, err := rc.ctl.call(ctlRequest{Op: opAccess, ID: v.bcast}, &resp)
	d := time.Since(t0)
	cl.log.record(id, parent, req, "ctl.access", t0, d)
	cl.log.record(cl.log.newID(), id, req, "service.AccessVideo", t0.Add((d-ns)/2), ns)
	w.accessMS = append(w.accessMS, float64(ns)/1e6)
	if err != nil {
		cl.fail(fmt.Errorf("access %s: %w", v.bcast, err))
		return
	}
	if resp.Protocol != "HLS" || resp.HLSBaseURL != v.base {
		cl.failed++
		cl.violate("access %s: got %s %s, want HLS %s", v.bcast, resp.Protocol, resp.HLSBaseURL, v.base)
	}
}

// popDelta sums the POP counters' growth between two snapshots, except
// Warmups, summed since launch, and the playlist age, the later
// snapshot's largest.
func popDelta(s0, s1 snap) popSnap {
	var d popSnap
	for i, p := range s1.POPs {
		var q popSnap
		if i < len(s0.POPs) {
			q = s0.POPs[i]
		}
		d.Fills += p.Fills - q.Fills
		d.FillErrors += p.FillErrors - q.FillErrors
		d.FillRetries += p.FillRetries - q.FillRetries
		d.FillCapWaits += p.FillCapWaits - q.FillCapWaits
		d.SingleFlightHits += p.SingleFlightHits - q.SingleFlightHits
		d.PeerFills += p.PeerFills - q.PeerFills
		d.StaleServes += p.StaleServes - q.StaleServes
		d.Warmups += p.Warmups
		if p.MaxPlaylistAgeNS > d.MaxPlaylistAgeNS {
			d.MaxPlaylistAgeNS = p.MaxPlaylistAgeNS
		}
	}
	return d
}

// checkPipelines checks that exactly the workload's broadcasts still have
// a pipeline, an origin mount and a chat room: none leaked, none lost.
func (rc *runCtx) checkPipelines(s snap, want int) {
	if s.LiveHubs != want || s.OriginBroadcasts != want || s.Rooms != want {
		rc.rep.violate("after the run: %d live hubs, %d origin mounts, %d chat rooms; want %d each",
			s.LiveHubs, s.OriginBroadcasts, s.Rooms, want)
	}
}

// reportOrigin adds the origin tier's load: segment fetches per segment
// cut and warm-ups per broadcast.
func (rc *runCtx) reportOrigin(b0, b1 bracketMark, watched watchResult) {
	r := rc.rep
	cuts := int64(len(watched.Cuts))
	segReq := b1.snap.OriginSegmentReq - b0.snap.OriginSegmentReq
	perSeg := 0.0
	if cuts > 0 {
		perSeg = float64(segReq) / float64(cuts)
	}
	r.value(true, "origin.segment_requests_per_segment", "ratio", perSeg,
		fmt.Sprintf("%d origin segment requests over origin.segments_cut=%d", segReq, cuts))
	r.count(true, "origin.segments_cut", cuts)
	n := len(rc.info.Broadcasts)
	warm := popDelta(snap{}, b1.snap).Warmups
	r.value(true, "pop.warmups_per_broadcast", "ratio", float64(warm)/float64(n),
		fmt.Sprintf("%d warm-ups since launch over %d broadcasts", warm, n))
}
