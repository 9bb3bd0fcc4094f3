// Package player implements the viewer-side playback machinery: a
// deterministic playback-buffer engine that turns media-arrival events
// into the QoE metrics the app reports via playbackMeta (join time, stall
// events and durations, playback latency, §5.1), and fast transport
// simulators for RTMP push and HLS segment delivery over a bandwidth-
// limited access link. The same engine serves both the wire-level player
// and the model-level sweeps, so the QoE accounting is identical in both
// tiers.
package player

import (
	"sort"
	"time"

	"periscope/internal/avc"
	"periscope/internal/hls"
	"periscope/internal/mpegts"
)

// Chunk is one delivery of media to the player: a frame (RTMP) or a
// segment (HLS).
type Chunk struct {
	// Arrival is the session-relative wall time the chunk finished
	// arriving.
	Arrival time.Duration
	// MediaStart/MediaEnd are broadcast media positions covered.
	MediaStart, MediaEnd time.Duration
	// CaptureEnd is the session-relative wall time the chunk's last frame
	// was captured at the broadcaster (derived from the embedded NTP
	// timestamps in the wire tier).
	CaptureEnd time.Duration
}

// SegmentChunk demuxes one fetched MPEG-TS segment into a player chunk,
// session-relative to start. Capture time comes from the first embedded
// NTP timestamp SEI, extrapolated to the segment's last video frame;
// without one it falls back to the arrival time. It reports false for a
// segment carrying no video.
func SegmentChunk(fs hls.FetchedSegment, start time.Time) (Chunk, bool) {
	units, err := mpegts.DemuxAll(fs.Data)
	if err != nil {
		return Chunk{}, false
	}
	var minPTS, maxPTS int64 = -1, -1
	var seiWall time.Time
	var seiPTS int64 = -1
	for _, u := range units {
		if u.PID != mpegts.PIDVideo {
			continue
		}
		if minPTS == -1 || u.PTS < minPTS {
			minPTS = u.PTS
		}
		if u.PTS > maxPTS {
			maxPTS = u.PTS
		}
		if seiPTS == -1 {
			if nals, err := avc.ParseAnnexB(u.Data); err == nil {
				if ts, ok := avc.FindTimestamp(nals); ok {
					seiWall = ts
					seiPTS = u.PTS
				}
			}
		}
	}
	if minPTS == -1 {
		return Chunk{}, false
	}
	arrival := fs.FetchEnd.Sub(start)
	capture := arrival
	if seiPTS >= 0 {
		capture = seiWall.Add(mpegts.FromTicks(maxPTS - seiPTS)).Sub(start)
	}
	return Chunk{
		Arrival:    arrival,
		MediaStart: mpegts.FromTicks(minPTS),
		MediaEnd:   mpegts.FromTicks(maxPTS),
		CaptureEnd: capture,
	}, true
}

// Metrics are the per-session QoE results.
type Metrics struct {
	Protocol string
	// JoinTime is the startup latency: session time before playback
	// first started (the paper computes it as 60 s − play − stall).
	JoinTime time.Duration
	PlayTime time.Duration
	// StallTime is the total mid-playback rebuffering time.
	StallTime  time.Duration
	StallCount int
	// LongestStall is the single worst rebuffering interval — the metric
	// the outage scenarios bound: failover is allowed to cost one stall,
	// but that stall must stay short.
	LongestStall time.Duration
	// StallRatio is stall / (stall + play), the Fig. 3 metric.
	StallRatio float64
	// AvgStall is the mean stall event duration (RTMP playbackMeta).
	AvgStall time.Duration
	// PlaybackLatency is the mean end-to-end latency from capture to
	// render (Fig. 4(b)).
	PlaybackLatency time.Duration
	// DeliveryLatency is the mean capture-to-arrival latency measured
	// from embedded NTP timestamps (Fig. 5). It may be negative for fast
	// paths when the NTP sync error dominates.
	DeliveryLatency time.Duration
	// Delivered counts media chunks that arrived within the session.
	Delivered int
	// Bytes is total media payload delivered (filled by simulators).
	Bytes int64
}

// Engine is the playback-buffer model: playback starts once Startup media
// is buffered, stalls when the buffer drains, and resumes at Resume.
type Engine struct {
	Startup time.Duration
	Resume  time.Duration
}

// DefaultRTMPEngine mirrors the app's RTMP jitter buffer: the paper finds
// "the majority of the few seconds of playback latency with those streams
// comes from buffering", so the buffer holds ~1.5 s of media.
func DefaultRTMPEngine() Engine {
	return Engine{Startup: 1500 * time.Millisecond, Resume: 1800 * time.Millisecond}
}

// DefaultHLSEngine starts playback after one segment and rebuffers a
// segment's worth — segment-granular buffering is what makes HLS stall
// less but lag more.
func DefaultHLSEngine(segment time.Duration) Engine {
	return Engine{Startup: segment * 8 / 10, Resume: segment * 8 / 10}
}

// Run replays the chunk arrivals through the buffer model for a session
// lasting sessionDur and returns the metrics.
func (e Engine) Run(chunks []Chunk, sessionDur time.Duration) Metrics {
	var m Metrics
	cs := append([]Chunk(nil), chunks...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Arrival < cs[j].Arrival })

	type buffered struct {
		dur        time.Duration
		captureEnd time.Duration
		arrival    time.Duration
	}
	var queue []buffered

	now := time.Duration(0)
	var buffer time.Duration
	playing := false
	started := false
	var stallStart time.Duration
	var latencySum time.Duration
	var latencyN int
	var deliverySum time.Duration
	var deliveryN int

	// endStall closes the stall interval that began at stallStart,
	// accumulating total stall time and tracking the single worst one.
	endStall := func(end time.Duration) {
		d := end - stallStart
		m.StallTime += d
		if d > m.LongestStall {
			m.LongestStall = d
		}
	}

	// consume advances playback by d, draining the buffer queue and
	// sampling playback latency as each chunk's tail is rendered.
	consume := func(until time.Duration) {
		for playing && now < until {
			if len(queue) == 0 {
				// Buffer empty: stall begins now.
				playing = false
				m.StallCount++
				stallStart = now
				break
			}
			head := &queue[0]
			step := head.dur
			if now+step > until {
				step = until - now
			}
			head.dur -= step
			buffer -= step
			now += step
			m.PlayTime += step
			if head.dur <= 0 {
				// Tail of this chunk rendered at wall time `now`.
				latencySum += now - head.captureEnd
				latencyN++
				queue = queue[1:]
			}
		}
		if now < until {
			now = until
		}
	}

	for _, c := range cs {
		if c.Arrival > sessionDur {
			break
		}
		if playing {
			consume(c.Arrival)
		} else {
			now = c.Arrival
		}
		// Account the stall/join interval endings at this arrival.
		dur := c.MediaEnd - c.MediaStart
		if dur < 0 {
			dur = 0
		}
		queue = append(queue, buffered{dur: dur, captureEnd: c.CaptureEnd, arrival: c.Arrival})
		buffer += dur
		m.Delivered++
		deliverySum += c.Arrival - c.CaptureEnd
		deliveryN++
		if !playing {
			threshold := e.Startup
			if started {
				threshold = e.Resume
			}
			if buffer >= threshold {
				if started {
					endStall(now)
				} else {
					m.JoinTime = now
					started = true
				}
				playing = true
			}
		}
	}
	// Run out the clock.
	if playing {
		consume(sessionDur)
		if !playing {
			// Stalled at the tail: the remaining time is rebuffering.
			endStall(sessionDur)
		}
	} else if started {
		endStall(sessionDur)
	} else {
		// Never started: the whole session was join time.
		m.JoinTime = sessionDur
	}

	if m.StallCount > 0 {
		m.AvgStall = m.StallTime / time.Duration(m.StallCount)
	}
	if total := m.PlayTime + m.StallTime; total > 0 {
		m.StallRatio = float64(m.StallTime) / float64(total)
	}
	if latencyN > 0 {
		m.PlaybackLatency = latencySum / time.Duration(latencyN)
	}
	if deliveryN > 0 {
		m.DeliveryLatency = deliverySum / time.Duration(deliveryN)
	}
	return m
}
