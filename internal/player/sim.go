package player

import (
	"math/rand"
	"time"

	"periscope/internal/hls"
	"periscope/internal/media"
)

// SimConfig parameterises one simulated 60-second viewing session.
type SimConfig struct {
	// BandwidthBps is the access-link capacity in bits per second
	// (0 = the study's unlimited >100 Mbps tethered link).
	BandwidthBps float64
	// RTT is the path round-trip time.
	RTT time.Duration
	// SessionDur is the watch duration (60 s in the study).
	SessionDur time.Duration
	// Encoder describes the broadcast's media (sizes only; payloads are
	// not materialised in the fast tier).
	Encoder media.EncoderConfig
	// JoinPos is the broadcast media position when the viewer joins.
	JoinPos time.Duration
	// Viewers drives the chat-traffic intensity (avatars share the link).
	Viewers int
	// ChatVisible mirrors the app's default chat display; avatar
	// downloads then compete with video for the bottleneck (§5.1).
	ChatVisible bool
	// AvatarCache enables the mitigation the paper proposes ("the energy
	// overhead of chat could be mitigated by caching profile pictures"):
	// each chatter's picture is downloaded only once.
	AvatarCache bool
	// SegmentTarget is the HLS segment duration target.
	SegmentTarget time.Duration
	// PackagingDelay is the transcode/packaging lag before a finished HLS
	// segment appears on the CDN.
	PackagingDelay time.Duration
	// PlaylistTTL models CDN edge caching of the live playlist: a client
	// may see a stale playlist for up to this long after a segment lands.
	PlaylistTTL time.Duration
	// LiveEdgeOffset is how many complete segments behind the newest the
	// HLS player starts (players hold back for buffer safety).
	LiveEdgeOffset int
	// SyncErr models imperfect NTP synchronisation of the capture host.
	SyncErr time.Duration
	// BroadcasterGapProb is the chance the broadcaster's uplink hiccups
	// once during the session, pausing production for a few seconds. This
	// is what produces the single ~3-5 s stall visible as the 0.05-0.09
	// stall-ratio mass in Fig. 3(a) even on an unlimited viewer link —
	// and, because the HLS player buffers whole segments, why HLS rides
	// such gaps out with fewer stalls.
	BroadcasterGapProb float64
	Seed               int64
}

// DefaultSimConfig returns the study's baseline parameters.
func DefaultSimConfig(seed int64) SimConfig {
	rng := rand.New(rand.NewSource(seed))
	enc := media.RandomEncoderConfig(rng)
	enc.EmitPayload = false
	return SimConfig{
		BandwidthBps:       0,
		RTT:                40 * time.Millisecond,
		SessionDur:         60 * time.Second,
		Encoder:            enc,
		JoinPos:            time.Duration(rng.Float64() * float64(4*time.Minute)),
		Viewers:            10,
		ChatVisible:        true,
		SegmentTarget:      3600 * time.Millisecond,
		PackagingDelay:     400 * time.Millisecond,
		PlaylistTTL:        2 * time.Second,
		LiveEdgeOffset:     hls.LiveEdgeOffset,
		BroadcasterGapProb: 0.22,
		Seed:               seed,
	}
}

// sampleGap draws the broadcaster hiccup window (session-relative wall
// time), or (-1, -1) if none occurs.
func sampleGap(cfg SimConfig, rng *rand.Rand) (start, end time.Duration) {
	if rng.Float64() >= cfg.BroadcasterGapProb {
		return -1, -1
	}
	at := time.Duration(rng.Float64() * float64(cfg.SessionDur) * 0.8)
	gap := 3*time.Second + time.Duration(rng.Float64()*float64(3*time.Second))
	return at, at + gap
}

// unlimitedBps stands in for the >100 Mbps tethered access of §2.
const unlimitedBps = 100e6

// linkQueue serialises transmissions over the bottleneck access link.
type linkQueue struct {
	bps  float64
	free time.Duration // next instant the link is idle
}

// transmit sends n bytes that become ready at t; returns completion time.
func (q *linkQueue) transmit(ready time.Duration, n int) time.Duration {
	start := ready
	if q.free > start {
		start = q.free
	}
	q.free = start + time.Duration(float64(n)*8/q.bps*float64(time.Second))
	return q.free
}

// chatEvent is one avatar download competing for the link.
type chatEvent struct {
	at   time.Duration
	size int
}

// chatTraffic generates the avatar-download arrival process for a session.
// JSON chat messages themselves are tiny; the profile pictures dominate
// ("image downloads from Amazon S3 servers appear in the traffic").
func chatTraffic(cfg SimConfig, rng *rand.Rand) []chatEvent {
	if !cfg.ChatVisible || cfg.Viewers < 2 {
		return nil
	}
	chatters := cfg.Viewers / 4
	if chatters > 100 {
		chatters = 100
	}
	if chatters < 1 {
		chatters = 1
	}
	// One message per chatter every 5 s: an active room of 25 chatters
	// pulls ~1.3 Mbps of avatars, and a full room approaches the 3 Mbps
	// surge the paper measured with chat on.
	msgRate := float64(chatters) * 0.2 // msgs/s room-wide
	const avatarFrac = 0.7
	var events []chatEvent
	seen := map[int]bool{}
	// Join burst: on entering a broadcast the app renders the recent chat
	// history, fetching those senders' profile pictures immediately. On a
	// limited link this burst competes with the startup video and is the
	// main reason join time "grows dramatically when bandwidth drops to
	// 2 Mbps and below" (§5.1, Fig. 4(a)).
	historyUsers := chatters / 2
	if historyUsers > 0 {
		burst := int(float64(historyUsers) * avatarFrac * 47_500)
		events = append(events, chatEvent{at: 0, size: burst})
	}
	for t := time.Duration(0); t < cfg.SessionDur; {
		t += time.Duration(rng.ExpFloat64() / msgRate * float64(time.Second))
		if rng.Float64() >= avatarFrac {
			continue
		}
		user := rng.Intn(chatters)
		if cfg.AvatarCache && seen[user] {
			continue // cache hit: no download
		}
		seen[user] = true
		size := (15 + rng.Intn(66)) * 1024 // 15-80 KB
		events = append(events, chatEvent{at: t, size: size})
	}
	return events
}

// frameRecord is one produced frame in the fast tier.
type frameRecord struct {
	pts      time.Duration
	dur      time.Duration
	bytes    int
	keyframe bool
}

// produceFrames runs the synthetic encoder from the join position for the
// session duration plus slack, returning frames the relay would forward
// (starting at the first keyframe at or after the join position).
func produceFrames(cfg SimConfig, slack time.Duration) []frameRecord {
	enc := media.NewEncoder(cfg.Encoder, time.Unix(0, 0))
	interval := enc.FrameInterval()
	var frames []frameRecord
	horizon := cfg.JoinPos + cfg.SessionDur + slack
	started := false
	for {
		f := enc.NextFrame()
		if f.PTS > horizon {
			break
		}
		if f.PTS < cfg.JoinPos {
			continue
		}
		if !started {
			if !f.Keyframe {
				continue // relay waits for the next keyframe
			}
			started = true
		}
		if f.Dropped {
			continue
		}
		frames = append(frames, frameRecord{
			pts:      f.PTS,
			dur:      interval,
			bytes:    f.Bits / 8,
			keyframe: f.Keyframe,
		})
	}
	return frames
}

// SimulateRTMP models a push-based RTMP session: every frame is forwarded
// by the relay the moment the broadcaster produces it and queues on the
// viewer's access link.
func SimulateRTMP(cfg SimConfig) Metrics {
	return SimulateRTMPWithEngine(cfg, DefaultRTMPEngine())
}

// SimulateRTMPWithEngine runs the RTMP transport model through a custom
// playback-buffer engine (used by the startup-buffer ablation).
func SimulateRTMPWithEngine(cfg SimConfig, engine Engine) Metrics {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x52544d50))
	bps := cfg.BandwidthBps
	if bps <= 0 {
		bps = unlimitedBps
	}
	q := &linkQueue{bps: bps}

	// Connection setup: API accessVideo + TCP + RTMP handshake + connect +
	// createStream/play — about four round trips before media flows.
	setup := 4*cfg.RTT + 100*time.Millisecond

	frames := produceFrames(cfg, 2*time.Second)
	chat := chatTraffic(cfg, rng)
	gapStart, gapEnd := sampleGap(cfg, rng)

	var chunks []Chunk
	var bytes int64
	ci := 0
	for _, f := range frames {
		// Wall time the frame is produced, relative to session start.
		produced := f.pts - cfg.JoinPos + setup
		if gapStart >= 0 && produced >= gapStart && produced < gapEnd {
			// Uplink hiccup: frames from the gap window reach the relay in
			// a burst once the broadcaster recovers.
			produced = gapEnd
		}
		if produced > cfg.SessionDur {
			break
		}
		// Interleave chat downloads that became ready first.
		for ci < len(chat) && chat[ci].at <= produced {
			q.transmit(chat[ci].at, chat[ci].size)
			ci++
		}
		arrival := q.transmit(produced, f.bytes) + cfg.RTT/2
		bytes += int64(f.bytes)
		chunks = append(chunks, Chunk{
			Arrival:    arrival,
			MediaStart: f.pts,
			MediaEnd:   f.pts + f.dur,
			CaptureEnd: produced,
		})
	}
	m := engine.Run(chunks, cfg.SessionDur)
	m.Protocol = "RTMP"
	m.Bytes = bytes
	m.DeliveryLatency += cfg.SyncErr
	return m
}

// SimulateHLS models a pull-based HLS session: frames are cut into
// keyframe-aligned segments, each available PackagingDelay after its last
// frame; the client polls the playlist, starts LiveEdgeOffset segments
// behind the newest, and downloads sequentially over the same bottleneck.
func SimulateHLS(cfg SimConfig) Metrics {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x484c53))
	bps := cfg.BandwidthBps
	if bps <= 0 {
		bps = unlimitedBps
	}
	if cfg.SegmentTarget <= 0 {
		cfg.SegmentTarget = 3600 * time.Millisecond
	}
	q := &linkQueue{bps: bps}

	// Build segments from a stream that began well before the viewer
	// joined, so a live window already exists.
	backlog := time.Duration(cfg.LiveEdgeOffset+2) * cfg.SegmentTarget * 2
	pre := cfg
	pre.JoinPos = cfg.JoinPos - backlog
	if pre.JoinPos < 0 {
		pre.JoinPos = 0
	}
	frames := produceFrames(pre, backlog+6*time.Second)

	type segment struct {
		start, end time.Duration
		bytes      int
		avail      time.Duration // wall time it becomes visible to clients
	}
	var segs []segment
	var cur *segment
	for _, f := range frames {
		if cur != nil && f.keyframe && f.pts-cur.start >= cfg.SegmentTarget {
			cur = nil
		}
		if cur == nil {
			segs = append(segs, segment{start: f.pts})
			cur = &segs[len(segs)-1]
		}
		// ~4% MPEG-TS packaging overhead.
		cur.bytes += f.bytes + f.bytes/25
		cur.end = f.pts + f.dur
	}
	for i := range segs {
		// Availability = completion + packaging + stale-playlist lag at
		// the CDN edge.
		ttlLag := time.Duration(rng.Float64() * float64(cfg.PlaylistTTL))
		segs[i].avail = segs[i].end - cfg.JoinPos + cfg.PackagingDelay + ttlLag
	}

	// Broadcaster hiccups delay segment availability.
	gapStart, gapEnd := sampleGap(cfg, rng)
	if gapStart >= 0 {
		for i := range segs {
			if segs[i].avail >= gapStart && segs[i].avail < gapEnd {
				segs[i].avail = gapEnd
			}
		}
	}

	// Client setup: API + TCP + first playlist fetch. Playlist reloads
	// happen once per target duration, per the HLS spec.
	setup := 3*cfg.RTT + 150*time.Millisecond
	poll := cfg.SegmentTarget

	// Find the first segment to play: LiveEdgeOffset behind the newest
	// complete segment at join time.
	newest := -1
	for i, s := range segs {
		if s.avail <= setup {
			newest = i
		}
	}
	first := newest - cfg.LiveEdgeOffset
	if first < 0 {
		first = 0
	}

	chat := chatTraffic(cfg, rng)
	ci := 0
	var chunks []Chunk
	var bytes int64
	now := setup
	for i := first; i < len(segs); i++ {
		s := segs[i]
		// Wait (polling) until the segment is visible in the playlist.
		for s.avail > now {
			now += poll
		}
		if now > cfg.SessionDur {
			break
		}
		for ci < len(chat) && chat[ci].at <= now {
			q.transmit(chat[ci].at, chat[ci].size)
			ci++
		}
		// Playlist refresh costs one small transfer, the segment a large
		// one; both share the bottleneck.
		q.transmit(now, 600)
		arrival := q.transmit(now+cfg.RTT/2, s.bytes) + cfg.RTT/2
		bytes += int64(s.bytes)
		// The NTP-timestamp SEIs are spread across the segment, so the
		// mean latency sample corresponds to the segment midpoint.
		chunks = append(chunks, Chunk{
			Arrival:    arrival,
			MediaStart: s.start,
			MediaEnd:   s.end,
			CaptureEnd: (s.start+s.end)/2 - cfg.JoinPos,
		})
		if arrival > now {
			now = arrival
		}
	}
	m := DefaultHLSEngine(cfg.SegmentTarget).Run(chunks, cfg.SessionDur)
	m.Protocol = "HLS"
	m.Bytes = bytes
	m.DeliveryLatency += cfg.SyncErr
	return m
}
