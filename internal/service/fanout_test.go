package service

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"periscope/internal/broadcastmodel"
	"periscope/internal/flv"
	"periscope/internal/rtmp"
)

// fakeAddr satisfies net.Addr for the in-memory connections below.
type fakeAddr struct{}

func (fakeAddr) Network() string { return "fake" }
func (fakeAddr) String() string  { return "fake" }

// baseConn implements the inert parts of net.Conn.
type baseConn struct{}

func (baseConn) Read(b []byte) (int, error)         { select {} }
func (baseConn) Close() error                       { return nil }
func (baseConn) LocalAddr() net.Addr                { return fakeAddr{} }
func (baseConn) RemoteAddr() net.Addr               { return fakeAddr{} }
func (baseConn) SetDeadline(t time.Time) error      { return nil }
func (baseConn) SetReadDeadline(t time.Time) error  { return nil }
func (baseConn) SetWriteDeadline(t time.Time) error { return nil }

// stallConn blocks every Write until unblocked: a viewer whose TCP window
// has collapsed. Close is counted, for the repeated-Close regression.
type stallConn struct {
	baseConn
	unblock chan struct{}
	closes  atomic.Int32
}

func (c *stallConn) Write(b []byte) (int, error) {
	<-c.unblock
	return len(b), nil
}

func (c *stallConn) Close() error {
	c.closes.Add(1)
	return nil
}

// countConn counts bytes written: a healthy viewer draining instantly.
type countConn struct {
	baseConn
	n atomic.Int64
}

func (c *countConn) Write(b []byte) (int, error) {
	c.n.Add(int64(len(b)))
	return len(b), nil
}

// keyframeTag builds a parseable FLV video keyframe tag of roughly the
// given payload size.
func keyframeTag(size int) []byte {
	return flv.VideoTagData{
		FrameType:  flv.VideoKeyFrame,
		PacketType: flv.AVCNALU,
		Data:       make([]byte, size),
	}.Marshal()
}

// interframeTag builds a parseable FLV non-keyframe video tag.
func interframeTag(size int) []byte {
	return flv.VideoTagData{
		FrameType:  flv.VideoInterFrame,
		PacketType: flv.AVCNALU,
		Data:       make([]byte, size),
	}.Marshal()
}

func benchHub() *hub {
	return newHub(nil, &broadcastmodel.Broadcast{ID: "bench"})
}

// pushMedia feeds one tag through the hub the way the ingest read loop
// does: the payload comes from the message pool, because the refcounted
// fan-out recycles it once the last viewer queue drains.
func pushMedia(h *hub, tag []byte, ts uint32) {
	p := rtmp.AcquireMessagePayload(len(tag))
	copy(p, tag)
	h.onMedia(rtmp.Message{TypeID: rtmp.TypeVideo, Timestamp: ts, Payload: p})
}

// deliverMedia runs one tag through every shard's delivery path inline on
// the caller's goroutine — what each shard worker does with a published
// descriptor — so drop counting and queue contents are deterministic.
func deliverMedia(h *hub, tag []byte, ts uint32) {
	p := rtmp.AcquireMessagePayload(len(tag))
	copy(p, tag)
	vt, _ := flv.ParseVideoTagData(p)
	sp := rtmp.SharePayload(p)
	m := shardMsg{
		typeID:     rtmp.TypeVideo,
		timestamp:  ts,
		isVideoKey: vt.FrameType == flv.VideoKeyFrame && vt.PacketType == flv.AVCNALU,
		sp:         sp,
	}
	for _, sh := range h.shards {
		sh.deliver(m)
	}
	sp.Release()
}

// TestSlowViewerDoesNotStallOthers covers the head-of-line requirement: a
// viewer whose connection has stalled completely must not delay delivery
// to the other viewers of the same broadcast.
func TestSlowViewerDoesNotStallOthers(t *testing.T) {
	h := benchHub()
	defer h.stop()

	stalled := &stallConn{unblock: make(chan struct{})}
	defer close(stalled.unblock)
	healthy := &countConn{}
	scStalled := &rtmp.ServerConn{Conn: rtmp.NewConn(stalled)}
	h.addViewer(scStalled)
	h.addViewer(&rtmp.ServerConn{Conn: rtmp.NewConn(healthy)})

	tag := keyframeTag(1024)
	// More messages than the queue holds, so the stalled viewer must hit
	// the drop-oldest policy while the healthy one keeps receiving.
	sent := viewerQueueDepth + 128
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < sent; i++ {
			pushMedia(h, tag, uint32(i*33))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("fan-out blocked on the stalled viewer")
	}

	deadline := time.Now().Add(5 * time.Second)
	want := int64(sent) * int64(len(tag)) / 2 // allow chunk overhead slack
	for time.Now().Before(deadline) {
		if healthy.n.Load() >= want {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := healthy.n.Load(); got < want {
		t.Fatalf("healthy viewer received %d bytes, want at least %d", got, want)
	}

	v := h.viewerFor(scStalled)
	if v == nil {
		t.Fatal("stalled viewer no longer attached")
	}
	// The stalled viewer's shard works through the same backlog on its
	// own worker, which may trail the healthy viewer's: poll it against
	// the same deadline rather than sampling it once.
	var stalledDrops int
	for {
		v.shard.mu.Lock()
		stalledDrops = v.dropped
		v.shard.mu.Unlock()
		if stalledDrops > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if stalledDrops == 0 {
		t.Error("stalled viewer never hit the drop-oldest policy")
	}
}

// TestHopelessViewerClosedOnce is the regression test for the repeated
// Close() storm: once a viewer crosses viewerMaxDrops it must be closed
// exactly once, its sender stopped, and the viewer removed from the set —
// not re-Closed on every subsequent message until OnClose fires.
func TestHopelessViewerClosedOnce(t *testing.T) {
	// Single-shard hub driven through deliverMedia: delivery runs inline,
	// so drop counting is deterministic.
	h := newFanoutHub(nil, &broadcastmodel.Broadcast{ID: "hopeless"}, 1)
	defer h.stop()

	stalled := &stallConn{unblock: make(chan struct{})}
	defer close(stalled.unblock)
	sc := &rtmp.ServerConn{Conn: rtmp.NewConn(stalled)}
	h.addViewer(sc)

	tag := keyframeTag(64)
	// The sender takes one message then stalls in Write; the queue fills;
	// every further message then drops one. Push past viewerMaxDrops.
	total := 1 + viewerQueueDepth + viewerMaxDrops + 16
	for i := 0; i < total; i++ {
		deliverMedia(h, tag, uint32(i*33))
	}
	if got := stalled.closes.Load(); got != 1 {
		t.Fatalf("hopeless viewer closed %d times, want exactly 1", got)
	}
	if n := h.ViewerCount(); n != 0 {
		t.Fatalf("hopeless viewer still attached (count %d)", n)
	}
	if got := h.stats.hopeless.Load(); got != 1 {
		t.Errorf("hopeless disconnect counter = %d, want 1", got)
	}
	if h.stats.drops.Load() < viewerMaxDrops {
		t.Errorf("drop counter = %d, want ≥ %d", h.stats.drops.Load(), viewerMaxDrops)
	}
	// Old behaviour re-Closed on every later message; these must not.
	for i := 0; i < 32; i++ {
		deliverMedia(h, tag, uint32((total+i)*33))
	}
	if got := stalled.closes.Load(); got != 1 {
		t.Fatalf("further media re-closed the removed viewer (%d closes)", got)
	}
}

// TestKeyframeResyncAcrossShards drives the shard delivery path directly
// (deliverMedia, multiple shards, no sender goroutines) and checks the
// join/resync state machine on every shard: no media before a keyframe,
// and after drops the sequence headers are re-sent at the next keyframe.
func TestKeyframeResyncAcrossShards(t *testing.T) {
	h := newFanoutHub(nil, &broadcastmodel.Broadcast{ID: "resync"}, 4)
	defer h.stop()
	h.seqHdrs.Store(&seqHeaders{video: keyframeTag(16), audio: []byte{0xAF, 0x00}})

	// One viewer per shard, attached by hand so no sender consumes the
	// queue and its contents stay observable.
	viewers := make([]*viewerState, len(h.shards))
	for i, sh := range h.shards {
		v := &viewerState{
			conn:    &rtmp.ServerConn{Conn: rtmp.NewConn(&countConn{})},
			shard:   sh,
			ch:      make(chan outMsg, viewerQueueDepth),
			quit:    make(chan struct{}),
			waiting: true,
		}
		if !sh.attach(v) {
			t.Fatal("attach refused")
		}
		viewers[i] = v
	}
	for i, v := range viewers {
		if got := len(v.ch); got != 2 {
			t.Fatalf("shard %d: %d queued after attach, want 2 sequence headers", i, got)
		}
	}

	// An interframe must not reach a waiting viewer on any shard.
	deliverMedia(h, interframeTag(64), 33)
	for i, v := range viewers {
		if got := len(v.ch); got != 2 {
			t.Fatalf("shard %d: interframe delivered to waiting viewer (%d queued)", i, got)
		}
	}

	// The next keyframe starts playback on every shard.
	deliverMedia(h, keyframeTag(64), 66)
	for i, v := range viewers {
		if got := len(v.ch); got != 3 {
			t.Fatalf("shard %d: keyframe not delivered (%d queued)", i, got)
		}
	}

	// Overflow the queues so drop-oldest kicks in: viewers go back to
	// waiting with needSeq set.
	for i := 0; i < viewerQueueDepth+8; i++ {
		deliverMedia(h, interframeTag(64), uint32(99+i*33))
	}
	for i, v := range viewers {
		v.shard.mu.Lock()
		waiting, needSeq, dropped := v.waiting, v.needSeq, v.dropped
		v.shard.mu.Unlock()
		if !waiting || !needSeq || dropped == 0 {
			t.Fatalf("shard %d: want waiting+needSeq after drops, got waiting=%v needSeq=%v dropped=%d",
				i, waiting, needSeq, dropped)
		}
	}

	// A real viewer's sender drains continuously; make room so the resync
	// burst (two headers + keyframe) fits without re-triggering drops.
	for _, v := range viewers {
		for i := 0; i < 8; i++ {
			m := <-v.ch
			m.release()
		}
	}

	// At the next keyframe every shard must resync: headers re-sent, then
	// the keyframe, as the last three queued messages.
	resyncsBefore := h.stats.resyncs.Load()
	deliverMedia(h, keyframeTag(64), 9999)
	if got := h.stats.resyncs.Load() - resyncsBefore; got != int64(len(viewers)) {
		t.Errorf("resync counter advanced by %d, want %d", got, len(viewers))
	}
	hd := h.seqHdrs.Load()
	for i, v := range viewers {
		v.shard.mu.Lock()
		waiting, needSeq := v.waiting, v.needSeq
		v.shard.mu.Unlock()
		if waiting || needSeq {
			t.Fatalf("shard %d: viewer did not resync at keyframe", i)
		}
		var last3 []outMsg
		for len(v.ch) > 0 {
			m := <-v.ch
			last3 = append(last3, m)
			if len(last3) > 3 {
				last3 = last3[1:]
			}
			m.release()
		}
		if len(last3) != 3 {
			t.Fatalf("shard %d: queue shorter than resync burst", i)
		}
		if &last3[0].payload[0] != &hd.video[0] || &last3[1].payload[0] != &hd.audio[0] {
			t.Errorf("shard %d: resync did not re-send sequence headers before keyframe", i)
		}
		if last3[2].timestamp != 9999 {
			t.Errorf("shard %d: last queued message is not the resync keyframe", i)
		}
	}
}

// TestViewerChurnDuringShardedFanout hammers concurrent attach/detach
// while a publisher pumps refcounted media through multiple shard
// workers. Run under -race it validates the locking of the shard viewer
// lists and the payload refcount handoffs.
func TestViewerChurnDuringShardedFanout(t *testing.T) {
	h := newFanoutHub(nil, &broadcastmodel.Broadcast{ID: "churn"}, 4)
	h.seqHdrs.Store(&seqHeaders{video: keyframeTag(16), audio: []byte{0xAF, 0x00}})

	stop := make(chan struct{})
	var pub sync.WaitGroup
	pub.Add(1)
	go func() {
		defer pub.Done()
		tag := keyframeTag(512)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pushMedia(h, tag, uint32(i*33))
		}
	}()

	var churn sync.WaitGroup
	for g := 0; g < 4; g++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := 0; i < 40; i++ {
				c := &rtmp.ServerConn{Conn: rtmp.NewConn(&countConn{})}
				h.addViewer(c)
				time.Sleep(time.Millisecond)
				h.removeViewer(c)
			}
		}()
	}
	churn.Wait()
	close(stop)
	pub.Wait()
	h.stop()
	if n := h.ViewerCount(); n != 0 {
		t.Fatalf("%d viewers leaked after churn", n)
	}
}

// benchFanout drives one hub at n viewers with pool-drawn payloads, the
// relay steady state: every payload is recycled by the refcounted fan-out
// once the last queue drains.
func benchFanout(b *testing.B, h *hub, n int) {
	defer h.stop()
	for i := 0; i < n; i++ {
		h.addViewer(&rtmp.ServerConn{Conn: rtmp.NewConn(&countConn{})})
	}
	tag := keyframeTag(4096)
	b.SetBytes(int64(len(tag)) * int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pushMedia(h, tag, uint32(i*33))
	}
	b.StopTimer()
}

// BenchmarkHubFanout measures the sharded fan-out of paced media messages
// to N attached viewers; SetBytes counts the payload delivered per
// operation across all viewers.
func BenchmarkHubFanout(b *testing.B) {
	for _, n := range []int{10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("viewers=%d", n), func(b *testing.B) {
			benchFanout(b, benchHub(), n)
		})
	}
}
