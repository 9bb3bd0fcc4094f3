package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"periscope/internal/avc"
	"periscope/internal/flv"
	"periscope/internal/rtmp"
)

// ifPoll is how often the HLS probe revisits each broadcast's playlist.
const ifPoll = time.Second

// rtmpSample is the RTMP probe's result.
type rtmpSample struct {
	tally
	g2gMS    []float64 // per video frame, capture to arrival
	recorded []rtmp.Message
}

// runIngestFleet runs the fleet of HLS-enabled broadcasts with one RTMP
// probe and one HLS probe rotating over every broadcast on POP 0.
func runIngestFleet(rc *runCtx) error {
	info := rc.info
	logs := newSpanLogs(2, rc.traced, rc.epoch)
	hlsC := newHLSClient(logs[0])
	defer hlsC.hc.CloseIdleConnections()
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

	var q eventQueue
	phases := rotationPhases(rc.seed, len(info.Broadcasts), ifPoll)
	viewers := make([]*hlsViewer, len(info.Broadcasts))
	for i, bc := range info.Broadcasts {
		viewers[i] = &hlsViewer{bcast: bc.ID, base: info.POPBases[0] + "/hls/" + bc.ID, start: start}
		q.push(event{due: start.Add(phases[i]), idx: i})
	}

	var probe rtmpSample
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		probe = rtmpProbe(info.ProbeAddr, info.ProbeID, end, rc.traced, logs[1])
	}()
	go func() {
		defer wg.Done()
		q.run(end, func(e event) {
			req := hlsC.log.newID()
			root := hlsC.log.newID()
			t0 := time.Now()
			hlsC.poll(viewers[e.idx], root, req)
			hlsC.log.record(root, 0, req, "probe.poll", t0, time.Since(t0))
			q.push(event{due: e.due.Add(ifPoll), idx: e.idx})
		})
	}()
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
	r.merge(&hlsC.tally)
	r.merge(&probe.tally)
	sess := playSessions(viewers, end)
	r.timing(false, "hls_g2g_%s_ms", "ms", hlsC.g2gMS, 0.95)
	r.timing(true, "rtmp_g2g_%s_ms", "ms", probe.g2gMS, 0.95)
	r.value(false, "stall_ratio", "ratio", sess.stallRatio(),
		fmt.Sprintf("stall %.1f s over %d probe sessions, play %.1f s", sess.stall.Seconds(), sess.sessions, sess.play.Seconds()))
	rc.checkPipelines(b1.snap, len(info.Broadcasts))
	rc.reportCommon(b0, b1, q.lateMS)

	if !rc.traced {
		return nil
	}
	rc.reportOrigin(b0, b1, watched)
	var cutLag []float64
	for _, c := range watched.Cuts {
		if si, ok := hlsC.cache[segKey{c.ID, c.Seq}]; ok {
			cutLag = append(cutLag, float64(time.Unix(0, c.AtNS).Sub(si.captureEnd))/1e6)
		}
	}
	r.timing(true, "hub.cut_lag_ms_%s", "ms", cutLag, 0.95)
	segNS := 0.0
	if watched.SegmentsCalls > 0 {
		segNS = float64(watched.SegmentsNS) / float64(watched.SegmentsCalls)
	}
	r.value(true, "service.broadcast_segments_ns", "ns", segNS, fmt.Sprintf("mean of %d calls", watched.SegmentsCalls))
	if err := replayLayers(rc, probe.recorded, info.ProbeSeed, logs[1]); err != nil {
		return err
	}
	return rc.reportTrace(logs)
}

// rtmpProbe plays one broadcast from its ingest server until end, timing
// every video frame from its capture (anchored on the broadcaster's NTP
// SEI) to its arrival, and checking that each media type's DTS never goes
// back. With record set it keeps a copy of every media message.
func rtmpProbe(addr, id string, end time.Time, record bool, log *spanLog) rtmpSample {
	s := rtmpSample{tally: tally{attempted: 1}} // the play request, then every message
	fail := func(err error) rtmpSample {
		s.fail(fmt.Errorf("rtmp probe: %w", err))
		return s
	}
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return fail(err)
	}
	cli, err := rtmp.NewClientConn(nc, "live", "rtmp://"+addr+"/live")
	if err != nil {
		nc.Close()
		return fail(err)
	}
	defer cli.Close()
	if err := cli.Play(id); err != nil {
		return fail(err)
	}
	if err := nc.SetReadDeadline(end); err != nil {
		return fail(err)
	}
	var seiWall time.Time
	var seiPTS time.Duration
	haveSEI := false
	lastTS := map[uint8]uint32{}
	for {
		msg, err := cli.ReadMessage()
		arrival := time.Now()
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				return fail(err)
			}
			return s
		}
		if msg.TypeID != rtmp.TypeVideo && msg.TypeID != rtmp.TypeAudio {
			continue
		}
		span := log.newID()
		s.attempted++
		if last, ok := lastTS[msg.TypeID]; ok && msg.Timestamp < last {
			s.violate("rtmp probe: type %d DTS went back from %d to %d ms", msg.TypeID, last, msg.Timestamp)
		}
		lastTS[msg.TypeID] = msg.Timestamp
		if msg.TypeID == rtmp.TypeVideo {
			if vt, err := flv.ParseVideoTagData(msg.Payload); err == nil && vt.PacketType == flv.AVCNALU {
				pts := time.Duration(msg.Timestamp)*time.Millisecond + time.Duration(vt.CompositionTime)*time.Millisecond
				if units, err := avc.ParseAVCC(vt.Data); err == nil {
					if ts, ok := avc.FindTimestamp(units); ok {
						seiWall, seiPTS, haveSEI = ts, pts, true
					}
				}
				if haveSEI {
					s.g2gMS = append(s.g2gMS, float64(arrival.Sub(seiWall.Add(pts-seiPTS)))/1e6)
				}
			}
		}
		if record {
			s.recorded = append(s.recorded, rtmp.Message{TypeID: msg.TypeID, Timestamp: msg.Timestamp,
				StreamID: msg.StreamID, Payload: append([]byte(nil), msg.Payload...)})
		}
		rtmp.RecycleMessagePayload(msg.Payload)
		log.record(span, 0, span, "probe.rtmp_frame", arrival, time.Since(arrival))
	}
}
