package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"periscope/internal/api"
)

// api-churn shape: acRate calls per second spread over acSessions
// sessions (each well below the per-session rate limit), and every
// pipeline an accessVideo call starts is ended acLifetime later.
const (
	acRate     = 500
	acSessions = 1000
	acLifetime = time.Second
	// acDrainSlack is how long past the CDN linger the drain may take.
	acDrainSlack = 5 * time.Second
	// acGetIDs is how many ids one getBroadcasts call asks for.
	acGetIDs = 10
)

// Event kinds of api-churn.
const (
	evCall = iota
	evEnd
)

// acWorker issues the calls of its sessions over one connection.
type acWorker struct {
	hc      *http.Client
	clients map[int]*api.Client
	calls   []apiCall
	live    []string // every live broadcast at set-up, for getBroadcasts
	cold    []string // this worker's share of the cold broadcasts, used in turn
	next    int
	ends    []string // broadcast of each evEnd event, by idx
	rng     *rand.Rand
	q       eventQueue
	log     *spanLog

	tally

	rateLimited int64
	latMS       []float64 // from the call's due time to its answer
	endpointMS  [apiKinds][]float64
	endMS       []float64 // EndBroadcast inside the launcher
}

// runAPIChurn drives the crawler-style API mix, its sessions shared out
// over two connections, ends every pipeline it starts, and checks that the
// service drains back to no pipelines, origins or rooms.
func runAPIChurn(rc *runCtx) error {
	info := rc.info
	// Each worker reuses a cold broadcast only after its pipeline ended:
	// the pool must outnumber the pipelines alive at once.
	if live := int(acLifetime.Seconds()*acRate) * apiMix[apiAccessVideo] / 10; len(info.ColdIDs) < live+2*apiKinds {
		return fmt.Errorf("only %d cold broadcasts for accessVideo, need %d", len(info.ColdIDs), live+2*apiKinds)
	}
	calls := apiSchedule(rc.seed, acRate, acSessions, rc.window)
	logs := newSpanLogs(2, rc.traced, rc.epoch)
	workers := make([]*acWorker, 2)
	for i := range workers {
		workers[i] = &acWorker{
			hc:      newHTTPClient(),
			clients: map[int]*api.Client{},
			live:    info.LiveIDs,
			rng:     rand.New(rand.NewSource(rc.seed*2 + int64(i))),
			log:     logs[i],
		}
	}
	for i, id := range info.ColdIDs {
		w := workers[i%2]
		w.cold = append(w.cold, id)
	}
	for _, w := range workers {
		w.rng.Shuffle(len(w.cold), func(i, j int) { w.cold[i], w.cold[j] = w.cold[j], w.cold[i] })
	}
	b0, err := rc.mark()
	if err != nil {
		return err
	}
	start := b0.at
	end := start.Add(rc.window)
	for _, c := range calls {
		w := workers[c.Session%2]
		if w.clients[c.Session] == nil {
			w.clients[c.Session] = api.NewClient(info.APIBase, fmt.Sprintf("livebench-%d", c.Session), w.hc)
		}
		w.q.push(event{due: start.Add(c.At), idx: len(w.calls), kind: evCall})
		w.calls = append(w.calls, c)
	}
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *acWorker) {
			defer wg.Done()
			w.q.run(end, func(e event) { w.do(rc, e) })
		}(w)
	}
	wg.Wait()
	b1, err := rc.mark()
	if err != nil {
		return err
	}
	// End the pipelines whose lifetime outlasts the window, then let the
	// CDN linger pass: nothing may be left.
	for _, w := range workers {
		w.hc.CloseIdleConnections()
		for w.q.h.Len() > 0 {
			e := w.q.h[0]
			w.q.h = w.q.h[1:]
			if e.kind == evEnd {
				w.end(rc, e)
			}
		}
	}
	linger := time.Duration(info.LingerMS) * time.Millisecond
	var dr drainResult
	if _, err := rc.ctl.call(ctlRequest{Op: opDrain, Arg: int((linger + acDrainSlack).Milliseconds())}, &dr); err != nil {
		return err
	}

	r := rc.rep
	var lat, endMS, lateMS []float64
	var perEndpoint [apiKinds][]float64
	var limited int64
	for _, w := range workers {
		r.merge(&w.tally)
		lat = append(lat, w.latMS...)
		endMS = append(endMS, w.endMS...)
		lateMS = append(lateMS, w.q.lateMS...)
		limited += w.rateLimited
		for k := range perEndpoint {
			perEndpoint[k] = append(perEndpoint[k], w.endpointMS[k]...)
		}
	}
	if dr.LiveHubs != 0 || dr.OriginBroadcasts != 0 || dr.Rooms != 0 {
		r.violate("after drain: %d live hubs, %d origin mounts, %d chat rooms left; want none",
			dr.LiveHubs, dr.OriginBroadcasts, dr.Rooms)
	}
	r.timing(true, "api_%s_ms", "ms", lat, 0.99)
	rc.reportCommon(b0, b1, lateMS)
	if !rc.traced {
		return nil
	}

	for k, name := range apiNames {
		r.timing(true, "api."+name+"_ms_%s", "ms", perEndpoint[k], 0.99)
	}
	r.share(true, "api.rate_limited_ratio", ratio{limited, int64(len(lat))}, "api.calls")
	r.count(true, "api.calls", int64(len(lat)))
	r.timing(true, "service.end_ms_%s", "ms", endMS, 0.99)
	r.count(true, "service.leftover_hubs", int64(dr.LiveHubs))
	r.count(true, "origin.leftover_broadcasts", int64(dr.OriginBroadcasts))
	r.count(true, "chat.leftover_rooms", int64(dr.Rooms))
	r.value(true, "service.drain_s", "s", float64(dr.WaitedNS)/1e9, "wait for the CDN linger to release every mount")
	return rc.reportTrace(logs)
}

// do runs one due event.
func (w *acWorker) do(rc *runCtx, e event) {
	if e.kind == evEnd {
		w.end(rc, e)
		return
	}
	c := w.calls[e.idx]
	cli := w.clients[c.Session]
	req := w.log.newID()
	id := w.log.newID()
	w.attempted++
	t0 := time.Now()
	var err error
	switch c.Kind {
	case apiMapGeo:
		// A random area inside the map's bounds, 10-60 degrees high and
		// twice as wide.
		h := 10 + w.rng.Float64()*50
		south := -90 + w.rng.Float64()*(180-h)
		west := -180 + w.rng.Float64()*(360-2*h)
		_, err = cli.MapGeoBroadcastFeed(api.MapGeoBroadcastFeedRequest{
			P1Lat: south, P1Lng: west, P2Lat: south + h, P2Lng: west + 2*h,
		})
	case apiGetBroadcasts:
		ids := make([]string, acGetIDs)
		for i := range ids {
			ids[i] = w.live[w.rng.Intn(len(w.live))]
		}
		_, err = cli.GetBroadcasts(ids)
	case apiAccessVideo:
		bid := w.cold[w.next%len(w.cold)]
		w.next++
		var resp api.AccessVideoResponse
		resp, err = cli.AccessVideo(bid)
		if err == nil {
			if resp.StreamName != bid || !(resp.Protocol == "RTMP" && resp.RTMPAddr != "" || resp.Protocol == "HLS" && resp.HLSBaseURL != "") {
				w.violate("accessVideo %s: incomplete answer %+v", bid, resp)
			}
			w.q.push(event{due: e.due.Add(acLifetime), idx: len(w.ends), kind: evEnd})
			w.ends = append(w.ends, bid)
		}
	case apiTeleport:
		var bid string
		bid, err = cli.Teleport()
		if err == nil && bid == "" {
			w.violate("teleport: empty broadcast id")
		}
	case apiPlaybackMeta:
		err = cli.PlaybackMeta(api.PlaybackMeta{
			BroadcastID:  w.live[w.rng.Intn(len(w.live))],
			Protocol:     "HLS",
			NStallEvents: w.rng.Intn(3),
			PlayTimeSec:  60,
		})
	}
	done := time.Now()
	w.log.record(id, req, req, "api."+apiNames[c.Kind], t0, done.Sub(t0))
	w.log.record(req, 0, req, "api.call", e.due, done.Sub(e.due))
	w.latMS = append(w.latMS, float64(done.Sub(e.due))/1e6)
	w.endpointMS[c.Kind] = append(w.endpointMS[c.Kind], float64(done.Sub(t0))/1e6)
	if err != nil {
		var rl api.ErrRateLimited
		if errors.As(err, &rl) {
			w.rateLimited++
		}
		w.fail(fmt.Errorf("%s: %w", apiNames[c.Kind], err))
	}
}

// end ends a pipeline an accessVideo call started, through
// Service.EndBroadcast in the launcher.
func (w *acWorker) end(rc *runCtx, e event) {
	w.attempted++
	id := w.log.newID()
	t0 := time.Now()
	ns, err := rc.ctl.call(ctlRequest{Op: opEnd, ID: w.ends[e.idx]}, nil)
	d := time.Since(t0)
	w.log.record(id, 0, id, "ctl.end", t0, d)
	w.log.record(w.log.newID(), id, id, "service.EndBroadcast", t0.Add((d-ns)/2), ns)
	w.endMS = append(w.endMS, float64(ns)/1e6)
	if err != nil {
		w.fail(fmt.Errorf("end %s: %w", w.ends[e.idx], err))
	}
}
