package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"periscope/internal/avc"
	"periscope/internal/flv"
	"periscope/internal/hls"
	"periscope/internal/media"
	"periscope/internal/mpegts"
	"periscope/internal/rtmp"
)

// replayMinTime is how long each layer's replay repeats at least, so its
// per-frame cost is an average over enough work to be steady.
const replayMinTime = 300 * time.Millisecond

// replayChunkSize is the chunk size the ingest path reads at (the RTMP
// client announces 4096).
const replayChunkSize = 4096

// layerCost is one layer's measured replay cost.
type layerCost struct {
	nsPerUnit, allocsPerUnit float64
	units                    int // units per pass
	passes                   int
}

// measureLayer repeats pass (units units of work each) for at least
// replayMinTime, recording a span per pass, and returns the cost per unit
// in time and heap allocations.
func measureLayer(log *spanLog, name string, units int, pass func()) layerCost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	c := layerCost{units: units}
	for c.passes < 3 || time.Since(start) < replayMinTime {
		id := log.newID()
		t0 := time.Now()
		pass()
		log.record(id, 0, id, name, t0, time.Since(t0))
		c.passes++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(units * c.passes)
	c.nsPerUnit = float64(elapsed.Nanoseconds()) / n
	c.allocsPerUnit = float64(m1.Mallocs-m0.Mallocs) / n
	return c
}

// videoFrame and audioFrame are recorded media, pre-parsed to the input
// each layer takes.
type videoFrame struct {
	pts, dts time.Duration
	key      bool
	avcc     []byte
	annexB   []byte
}

type audioFrame struct {
	pts  time.Duration
	data []byte
}

// sink keeps replay results alive so the compiler cannot drop the work.
var sink int

// replayLayers replays the ingest stream the RTMP probe recorded through
// the public functions of each layer on the ingest path, in the order the
// service applies them: RTMP chunk read, FLV tag parse, AVCC to Annex B
// (ParseAVCC + MarshalAnnexB, as feedSegmenter does), the HLS segmenter
// with its TS muxer; and the in-process broadcaster's encoder. Each layer
// runs alone, so its time is its own.
func replayLayers(rc *runCtx, msgs []rtmp.Message, mediaSeed int64, log *spanLog) error {
	if len(msgs) == 0 {
		return errors.New("replay: the RTMP probe recorded no media")
	}
	var stream bytes.Buffer
	cw := rtmp.NewChunkWriter(&stream)
	cw.SetChunkSize(replayChunkSize)
	var video []videoFrame
	var audio []audioFrame
	order := make([]bool, 0, len(msgs)) // true for video, in arrival order
	for _, m := range msgs {
		csid := uint32(6)
		if m.TypeID == rtmp.TypeVideo {
			csid = 7
		}
		if err := cw.WriteMessage(csid, m); err != nil {
			return fmt.Errorf("replay: re-chunking: %w", err)
		}
		if m.TypeID == rtmp.TypeVideo {
			vt, err := flv.ParseVideoTagData(m.Payload)
			if err != nil || vt.PacketType != flv.AVCNALU {
				continue
			}
			units, err := avc.ParseAVCC(vt.Data)
			if err != nil {
				return fmt.Errorf("replay: recorded frame: %w", err)
			}
			dts := time.Duration(m.Timestamp) * time.Millisecond
			video = append(video, videoFrame{
				pts: dts + time.Duration(vt.CompositionTime)*time.Millisecond, dts: dts,
				key: vt.FrameType == flv.VideoKeyFrame, avcc: vt.Data, annexB: avc.MarshalAnnexB(units),
			})
			order = append(order, true)
		} else {
			at, err := flv.ParseAudioTagData(m.Payload)
			if err != nil || at.PacketType != flv.AACRaw {
				continue
			}
			audio = append(audio, audioFrame{pts: time.Duration(m.Timestamp) * time.Millisecond, data: at.Data})
			order = append(order, false)
		}
	}
	if len(video) == 0 {
		return errors.New("replay: the recording holds no video frames")
	}
	raw := stream.Bytes()

	rtmpCost := measureLayer(log, "replay.rtmp_read", len(msgs), func() {
		cr := rtmp.NewChunkReader(bytes.NewReader(raw))
		cr.SetChunkSize(replayChunkSize)
		for range msgs {
			m, err := cr.ReadMessage()
			if err != nil {
				panic(fmt.Sprintf("replay: reading back own chunk stream: %v", err))
			}
			sink += len(m.Payload)
			rtmp.RecycleMessagePayload(m.Payload)
		}
	})
	flvCost := measureLayer(log, "replay.flv_parse", len(msgs), func() {
		for _, m := range msgs {
			if m.TypeID == rtmp.TypeVideo {
				vt, _ := flv.ParseVideoTagData(m.Payload)
				sink += len(vt.Data)
			} else {
				at, _ := flv.ParseAudioTagData(m.Payload)
				sink += len(at.Data)
			}
		}
	})
	avcCost := measureLayer(log, "replay.avc_annexb", len(video), func() {
		for _, f := range video {
			units, _ := avc.ParseAVCC(f.avcc)
			sink += len(avc.MarshalAnnexB(units))
		}
	})
	base := time.Now()
	segCost := measureLayer(log, "replay.hls_segmenter", len(order), func() {
		seg := hls.NewSegmenter(hls.DefaultSegmentTarget, hls.DefaultWindowSize)
		vi, ai := 0, 0
		for _, isVideo := range order {
			if isVideo {
				f := video[vi]
				vi++
				seg.WriteVideo(base.Add(f.dts), f.pts, f.dts, f.key, f.annexB)
			} else {
				f := audio[ai]
				ai++
				seg.WriteAudio(base.Add(f.pts), f.pts, f.data)
			}
		}
		seg.Finish(base)
		sink += seg.SegmentCount()
	})

	// TS overhead: muxed bytes over elementary-stream bytes.
	mux := mpegts.NewMuxer()
	var es, ts int
	vi, ai := 0, 0
	for _, isVideo := range order {
		if isVideo {
			f := video[vi]
			vi++
			mux.WriteVideo(f.pts, f.dts, f.key, f.annexB)
			es += len(f.annexB)
		} else {
			f := audio[ai]
			ai++
			mux.WriteAudio(f.pts, f.data)
			es += len(f.data)
		}
		ts += len(mux.Bytes())
	}

	rng := rand.New(rand.NewSource(mediaSeed))
	ecfg := media.RandomEncoderConfig(rng)
	ecfg.EmitPayload = true
	ecfg.SEIPeriod = 500 * time.Millisecond
	enc := media.NewEncoder(ecfg, time.Now())
	encCost := measureLayer(log, "replay.media_encode", len(video), func() {
		for range video {
			f := enc.NextFrame()
			if !f.Dropped {
				sink += len(avc.MarshalAVCC(f.NALs))
			}
		}
	})

	r := rc.rep
	per := func(name, unit string, c layerCost, what string) {
		r.add(true, metric{Name: name, Unit: unit, Value: c.nsPerUnit, N: c.units * c.passes,
			Note: fmt.Sprintf("%d %s x %d passes", c.units, what, c.passes)})
	}
	allocs := func(name string, c layerCost, what string) {
		r.value(true, name, "count", c.allocsPerUnit, "heap allocations per "+what)
	}
	per("rtmp.read_ns_per_msg", "ns", rtmpCost, "media messages")
	allocs("rtmp.allocs_per_msg", rtmpCost, "media message")
	per("flv.parse_ns_per_tag", "ns", flvCost, "tags")
	allocs("flv.allocs_per_tag", flvCost, "tag")
	per("avc.annexb_ns_per_frame", "ns", avcCost, "video frames")
	allocs("avc.allocs_per_frame", avcCost, "video frame")
	per("hls.segmenter_ns_per_frame", "ns", segCost, "audio+video frames")
	allocs("hls.allocs_per_frame", segCost, "audio or video frame")
	r.share(true, "mpegts.ts_overhead_ratio", ratio{int64(ts), int64(es)}, "mpegts.es_bytes")
	r.count(true, "mpegts.es_bytes", int64(es))
	per("media.encode_ns_per_frame", "ns", encCost, "frames")
	allocs("media.allocs_per_frame", encCost, "frame")
	return nil
}
