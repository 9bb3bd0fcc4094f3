package scenario

import (
	"context"
	"net/http"
	"time"

	"periscope/internal/hls"
	"periscope/internal/netem"
	"periscope/internal/player"
	"periscope/internal/service"
	"periscope/internal/session"
)

// viewerSession is one HLS viewer's life on hls.Client: resolve an edge
// via the real AccessVideo policy (re-resolving after any failed fetch,
// which is where health-driven steering hands out a live POP), join
// hls.LiveEdgeOffset segments behind the newest, and stop at the session
// deadline or when the playlist goes ENDLIST. Fetched segments are
// recorded as player chunks with SEI capture timing; QoE is replayed
// through player.Engine afterwards.
type viewerSession struct {
	cohort string
	dur    time.Duration

	// Written only by the session goroutine; read after wg.Wait.
	chunks      []player.Chunk
	lastArrival time.Duration
	ended       bool
}

func (vs *viewerSession) run(svc *service.Service, id string, profile *netem.AccessProfile, seed int64) {
	// Each viewer gets its own transport so its keep-alive sockets die
	// with the session (leakcheck would flag a shared pool's strays).
	var tr http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 4}
	timeout := 2 * time.Second
	if profile != nil {
		tr, timeout = profile.NewLink(seed).Transport(nil), 4*time.Second
	}
	httpc := &http.Client{Transport: tr, Timeout: timeout}
	defer httpc.CloseIdleConnections()

	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(vs.dur))
	defer cancel()
	client := hls.NewClient(hls.ClientConfig{
		Resolve:      session.ResolveHLS(svc.AccessVideo, id),
		PollInterval: 120 * time.Millisecond,
		HTTPClient:   httpc,
		OnSegment: func(fs hls.FetchedSegment) {
			if ch, ok := player.SegmentChunk(fs, start); ok {
				vs.chunks = append(vs.chunks, ch)
				vs.lastArrival = ch.Arrival
			}
		},
	})
	client.Run(ctx)
	// Returning before the deadline means the broadcast ended (ENDLIST,
	// or access now resolves to its replay).
	vs.ended = ctx.Err() == nil
}

// metrics replays the session through the playback-buffer model.
func (vs *viewerSession) metrics(segment time.Duration) player.Metrics {
	dur := vs.dur
	if vs.ended && vs.lastArrival > 0 && vs.lastArrival < dur {
		// The broadcast ended before the session deadline: judge QoE over
		// the time media was actually available, not the idle tail.
		dur = vs.lastArrival
	}
	return player.DefaultHLSEngine(segment).Run(vs.chunks, dur)
}
