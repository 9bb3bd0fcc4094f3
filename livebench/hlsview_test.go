package main

import (
	"strings"
	"testing"
	"time"

	"periscope/internal/avc"
	"periscope/internal/hls"
	"periscope/internal/media"
	"periscope/internal/mpegts"
)

// firstSegment encodes video until the segmenter cuts its first segment
// and returns it; withSEI false strips the capture-stamp SEIs.
func firstSegment(t *testing.T, start time.Time, withSEI bool) []byte {
	t.Helper()
	cfg := media.DefaultEncoderConfig()
	cfg.SEIPeriod = 500 * time.Millisecond
	cfg.DropProb = 0
	enc := media.NewEncoder(cfg, start)
	seg := hls.NewSegmenter(time.Second, hls.DefaultWindowSize)
	for seg.SegmentCount() == 0 {
		f := enc.NextFrame()
		var nals []avc.NALUnit
		for _, u := range f.NALs {
			if withSEI || u.Type != avc.NALSEI {
				nals = append(nals, u)
			}
		}
		seg.WriteVideo(start.Add(f.PTS), f.PTS, f.DTS, f.Keyframe, avc.MarshalAnnexB(nals))
	}
	s, ok := seg.Segment(0)
	if !ok {
		t.Fatal("no first segment")
	}
	return s.Data
}

func TestDemuxSegmentFindsCaptureStamp(t *testing.T) {
	start := time.Unix(1_700_000_000, 0)
	si, err := demuxSegment(firstSegment(t, start, true))
	if err != nil {
		t.Fatal(err)
	}
	// The first frame has PTS 0, so the last frame was captured the
	// segment's PTS span after the encoder started.
	want := start.Add(mpegts.FromTicks(si.maxPTS - si.minPTS))
	if d := si.captureEnd.Sub(want); d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("capture end %v, want %v", si.captureEnd, want)
	}
}

func TestDemuxSegmentRejectsUnstampedAndBrokenSegments(t *testing.T) {
	data := firstSegment(t, time.Now(), false)
	if _, err := demuxSegment(data); err == nil || !strings.Contains(err.Error(), "SEI") {
		t.Errorf("segment without SEI: err = %v", err)
	}
	if _, err := demuxSegment(data[:len(data)-1]); err == nil {
		t.Error("truncated segment demuxed")
	}
}

func TestSegmentCacheChecksRepeatedFetches(t *testing.T) {
	c := newHLSClient(nil)
	data := firstSegment(t, time.Now(), true)
	k := segKey{"b", 0}
	if _, err := c.segment(k, data, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.segment(k, data, 0, 0); err != nil {
		t.Fatalf("same bytes again: %v", err)
	}
	other := append([]byte(nil), data...)
	other[len(other)-1] ^= 0xff
	if _, err := c.segment(k, other, 0, 0); err == nil {
		t.Error("different bytes for the same segment were accepted")
	}
}
