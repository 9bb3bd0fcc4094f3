package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"time"

	"periscope/internal/avc"
	"periscope/internal/hls"
	"periscope/internal/mpegts"
	"periscope/internal/player"
)

// maxPTSStep is the largest gap allowed between one segment's last video
// PTS and the next segment's first: a frame interval plus a few dropped
// frames. A larger gap means media went missing between segments.
const maxPTSStep = 500 * time.Millisecond

// newHTTPClient returns a client that keeps at most one connection open.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 10 * time.Second,
	}
}

// segKey names one segment of one broadcast.
type segKey struct {
	bcast string
	seq   int
}

// segInfo is what demuxing a segment once yields: its size and checksum
// (so later fetches of the same segment can be checked cheaply), its video
// PTS range, and the capture time of its last frame from the
// broadcaster's NTP SEI.
type segInfo struct {
	size           int
	crc            uint32
	minPTS, maxPTS int64 // 90 kHz ticks
	captureEnd     time.Time
}

// demuxSegment checks that data is an MPEG-TS segment with video that
// carries a capture stamp, and returns its segInfo.
func demuxSegment(data []byte) (segInfo, error) {
	units, err := mpegts.DemuxAll(data)
	if err != nil {
		return segInfo{}, fmt.Errorf("demux: %w", err)
	}
	si := segInfo{minPTS: -1, maxPTS: -1}
	var seiWall time.Time
	seiPTS := int64(-1)
	for _, u := range units {
		if u.PID != mpegts.PIDVideo {
			continue
		}
		if si.minPTS == -1 || u.PTS < si.minPTS {
			si.minPTS = u.PTS
		}
		if u.PTS > si.maxPTS {
			si.maxPTS = u.PTS
		}
		if seiPTS == -1 {
			if nals, err := avc.ParseAnnexB(u.Data); err == nil {
				if ts, ok := avc.FindTimestamp(nals); ok {
					seiWall, seiPTS = ts, u.PTS
				}
			}
		}
	}
	if si.minPTS == -1 {
		return segInfo{}, errors.New("segment carries no video")
	}
	if seiPTS == -1 {
		return segInfo{}, errors.New("segment carries no SEI capture stamp")
	}
	si.captureEnd = seiWall.Add(mpegts.FromTicks(si.maxPTS - seiPTS))
	return si, nil
}

// hlsViewer is one logical viewer of one broadcast: a schedule entry, not
// a goroutine or a socket.
type hlsViewer struct {
	bcast  string
	base   string    // .../hls/<id>
	start  time.Time // session start: the scheduled arrival
	joined bool
	next   int   // next sequence the viewer needs
	maxPTS int64 // last video PTS it received
	chunks []player.Chunk
}

// hlsClient fetches playlists and segments over one keep-alive connection
// for many logical viewers, checks what it receives, and collects
// samples. One goroutine owns it.
type hlsClient struct {
	hc    *http.Client
	buf   bytes.Buffer
	cache map[segKey]segInfo
	log   *spanLog

	tally

	playlistReqs int64
	segmentReqs  int64
	// g2gMS are glass-to-glass samples: capture of a segment's last frame
	// to the segment's arrival, for every fetch after a viewer's join.
	g2gMS []float64
	// playlistMS and segmentMS time the HTTP exchanges, and firstSeen holds
	// when an edge playlist first listed each segment (traced runs).
	playlistMS, segmentMS []float64
	firstSeen             map[segKey]time.Time
}

func newHLSClient(log *spanLog) *hlsClient {
	return &hlsClient{hc: newHTTPClient(), cache: map[segKey]segInfo{}, log: log, firstSeen: map[segKey]time.Time{}}
}

// get fetches url into c.buf and returns when the body had fully arrived.
// A non-200 status is an error.
func (c *hlsClient) get(url, name string, parent, req uint64) (time.Time, error) {
	id := c.log.newID()
	start := time.Now()
	resp, err := c.hc.Get(url)
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
		}
	}
	end := time.Now()
	c.log.record(id, parent, req, name, start, end.Sub(start))
	if c.log != nil {
		ms := float64(end.Sub(start)) / 1e6
		if name == "pop.playlist" {
			c.playlistMS = append(c.playlistMS, ms)
		} else {
			c.segmentMS = append(c.segmentMS, ms)
		}
	}
	return end, err
}

// segment returns the segInfo of the bytes in data, demuxing each
// segment only the first time it is seen; later fetches must return the
// same bytes.
func (c *hlsClient) segment(k segKey, data []byte, parent, req uint64) (segInfo, error) {
	crc := crc32.ChecksumIEEE(data)
	if si, ok := c.cache[k]; ok {
		if si.size != len(data) || si.crc != crc {
			return si, fmt.Errorf("%s seg %d: bytes differ between fetches", k.bcast, k.seq)
		}
		return si, nil
	}
	id := c.log.newID()
	start := time.Now()
	si, err := demuxSegment(data)
	c.log.record(id, parent, req, "gen.demux", start, time.Since(start))
	if err != nil {
		return si, fmt.Errorf("%s seg %d: %w", k.bcast, k.seq, err)
	}
	si.size, si.crc = len(data), crc
	c.cache[k] = si
	return si, nil
}

// poll runs one playlist poll for v: a joining viewer fetches the newest
// segment, a joined one every segment after the last it has, in order.
func (c *hlsClient) poll(v *hlsViewer, parent, req uint64) {
	c.attempted++
	listed, err := c.get(v.base+"/playlist.m3u8", "pop.playlist", parent, req)
	if err != nil {
		c.fail(err)
		return
	}
	c.playlistReqs++
	pl, err := hls.ParseMediaPlaylist(c.buf.Bytes())
	if err != nil {
		c.failed++
		c.violate("%s playlist: %v", v.bcast, err)
		return
	}
	if c.log != nil {
		for _, s := range pl.Segments {
			k := segKey{v.bcast, s.Sequence}
			if _, ok := c.firstSeen[k]; !ok {
				c.firstSeen[k] = listed
			}
		}
	}
	if len(pl.Segments) == 0 {
		return
	}
	todo := pl.Segments
	if !v.joined {
		todo = todo[len(todo)-1:]
	} else {
		for len(todo) > 0 && todo[0].Sequence < v.next {
			todo = todo[1:]
		}
		if len(todo) > 0 && todo[0].Sequence > v.next {
			// The viewer's next segment already left the window.
			c.attempted++
			c.failed++
			c.violate("%s: viewer missed segments %d..%d", v.bcast, v.next, todo[0].Sequence-1)
			v.joined = false
		}
	}
	for _, s := range todo {
		c.attempted++
		arrival, err := c.get(v.base+"/"+s.URI, "pop.segment", parent, req)
		if err != nil {
			c.fail(err)
			return
		}
		c.segmentReqs++
		si, err := c.segment(segKey{v.bcast, s.Sequence}, c.buf.Bytes(), parent, req)
		if err != nil {
			c.failed++
			c.violate("%v", err)
			return
		}
		if v.joined {
			if step := mpegts.FromTicks(si.minPTS - v.maxPTS); step <= 0 || step > maxPTSStep {
				c.violate("%s seg %d: video PTS does not run on (step %v)", v.bcast, s.Sequence, step)
			}
			c.g2gMS = append(c.g2gMS, float64(arrival.Sub(si.captureEnd))/1e6)
		}
		v.chunks = append(v.chunks, player.Chunk{
			Arrival:    arrival.Sub(v.start),
			MediaStart: mpegts.FromTicks(si.minPTS),
			MediaEnd:   mpegts.FromTicks(si.maxPTS),
			CaptureEnd: si.captureEnd.Sub(v.start),
		})
		v.joined = true
		v.next = s.Sequence + 1
		v.maxPTS = si.maxPTS
	}
}

// sessionTotals sums player-engine results over viewer sessions.
type sessionTotals struct {
	joinMS     []float64
	stall      time.Duration
	play       time.Duration
	sessions   int
	neverStart int
}

// playSessions runs every viewer's arrivals through the HLS player model
// for a session lasting until end.
func playSessions(viewers []*hlsViewer, end time.Time) sessionTotals {
	var t sessionTotals
	eng := player.DefaultHLSEngine(hls.DefaultSegmentTarget)
	for _, v := range viewers {
		if !v.start.Before(end) {
			continue
		}
		m := eng.Run(v.chunks, end.Sub(v.start))
		t.sessions++
		t.joinMS = append(t.joinMS, float64(m.JoinTime)/1e6)
		if m.PlayTime == 0 {
			t.neverStart++
		}
		t.stall += m.StallTime
		t.play += m.PlayTime
	}
	return t
}

// stallRatio is stall time over stall plus play time, pooled over
// sessions.
func (t sessionTotals) stallRatio() float64 {
	if t.stall+t.play == 0 {
		return 0
	}
	return float64(t.stall) / float64(t.stall+t.play)
}
