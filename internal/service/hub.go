package service

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"periscope/internal/aac"
	"periscope/internal/avc"
	"periscope/internal/broadcastmodel"
	"periscope/internal/flv"
	"periscope/internal/hls"
	"periscope/internal/media"
	"periscope/internal/rtmp"
)

// ingestServer is one regional RTMP server of the "vidman" fleet.
type ingestServer struct {
	svc    *Service
	region string
	srv    *rtmp.Server
}

func newIngestServer(svc *Service, region string) (*ingestServer, error) {
	ing := &ingestServer{svc: svc, region: region}
	srv, err := rtmp.ListenAndServe("127.0.0.1:0", ing)
	if err != nil {
		return nil, err
	}
	srv.Name = region
	ing.srv = srv
	return ing, nil
}

// OnConnect accepts every app.
func (ing *ingestServer) OnConnect(c *rtmp.ServerConn, app string) error { return nil }

// OnPlay attaches a viewer to the broadcast's hub.
func (ing *ingestServer) OnPlay(c *rtmp.ServerConn, name string) error {
	h := ing.svc.hubFor(name)
	if h == nil {
		return fmt.Errorf("service: no live broadcast %q", name)
	}
	h.addViewer(c)
	return nil
}

// OnPublish registers the broadcaster connection.
func (ing *ingestServer) OnPublish(c *rtmp.ServerConn, name string) error { return nil }

// OnMedia routes publisher media into the hub pipeline. The hub takes
// ownership of the pooled payload; without a hub it goes straight back to
// the pool.
func (ing *ingestServer) OnMedia(c *rtmp.ServerConn, msg rtmp.Message) {
	if h := ing.svc.hubFor(c.StreamName); h != nil {
		h.onMedia(msg)
	} else {
		rtmp.RecycleMessagePayload(msg.Payload)
	}
}

// OnClose detaches viewers.
func (ing *ingestServer) OnClose(c *rtmp.ServerConn) {
	if c.Playing {
		if h := ing.svc.hubFor(c.StreamName); h != nil {
			h.removeViewer(c)
		}
	}
}

// hubFor looks up a live pipeline. It runs once per media message, so it
// takes only the read side of the service lock: media routing never waits
// on control-plane writes (hub creation, shutdown).
func (s *Service) hubFor(id string) *hub {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hubs[id]
}

// ensureHub starts the broadcast pipeline on first access.
func (s *Service) ensureHub(b *broadcastmodel.Broadcast) (*hub, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return nil, fmt.Errorf("service: closed")
	}
	if h, ok := s.hubs[b.ID]; ok {
		return h, nil
	}
	h := newHub(s, b)
	s.hubs[b.ID] = h
	if err := h.startBroadcaster(); err != nil {
		delete(s.hubs, b.ID)
		h.stop()
		return nil, err
	}
	return h, nil
}

// viewerQueueDepth bounds each viewer's async send queue. At ~30 media
// messages per second this is several seconds of backlog.
const viewerQueueDepth = 256

// viewerMaxDrops disconnects a viewer that the drop-oldest policy has had
// to penalize this many times — it is not keeping up at all.
const viewerMaxDrops = 4096

// shardQueueDepth bounds each fan-out shard's descriptor queue. Shard
// workers never block (viewer enqueue is drop-oldest), so the queue only
// absorbs scheduling jitter between the publisher and the workers.
const shardQueueDepth = 256

// feedQueueDepth bounds the HLS feed queue. The feed must not drop (TS
// continuity), so the publisher blocks if the muxer falls this far behind.
const feedQueueDepth = 256

// maxFanoutShards caps the per-hub worker count; past this, per-shard
// batches are large enough that more workers only add wakeup overhead.
const maxFanoutShards = 16

// fanoutShardCount picks K for a production hub: one worker per core.
func fanoutShardCount() int {
	k := runtime.GOMAXPROCS(0)
	if k < 1 {
		k = 1
	}
	if k > maxFanoutShards {
		k = maxFanoutShards
	}
	return k
}

// outMsg is one queued media message for a viewer. ref is nil for
// hub-owned buffers (cached sequence headers); otherwise the queue slot
// holds one reference, dropped via release.
type outMsg struct {
	typeID    uint8
	timestamp uint32
	payload   []byte
	ref       *rtmp.SharedPayload
}

func (m outMsg) release() {
	if m.ref != nil {
		m.ref.Release()
	}
}

// viewerState tracks one attached RTMP viewer. Media is enqueued on a
// bounded channel and written by a dedicated goroutine, so a slow or
// stalled viewer socket never blocks the shard's fan-out loop.
type viewerState struct {
	conn  *rtmp.ServerConn
	shard *fanoutShard
	ch    chan outMsg
	quit  chan struct{}
	once  sync.Once
	// waiting is true until the next keyframe; streams always start
	// decodable, which costs up to a GOP of join delay, as real relays do.
	// It is owned by the shard's delivery path (guarded by shard.mu).
	waiting bool
	// needSeq is set when the drop-oldest policy may have evicted the
	// queued sequence headers; they are re-sent at the next resync.
	needSeq bool
	// dropped counts messages discarded by the drop-oldest policy.
	dropped int
}

// enqueue offers a message to the viewer's queue without ever blocking.
// When the queue is full the oldest entry is dropped (and its payload
// reference released) to make room; it reports whether anything was
// dropped. If the message still cannot be queued, its reference is
// released here, so the caller's handoff is unconditional.
func (v *viewerState) enqueue(m outMsg) bool {
	select {
	case v.ch <- m:
		return false
	default:
	}
	select {
	case old := <-v.ch:
		old.release()
	default:
	}
	select {
	case v.ch <- m:
	default:
		m.release()
	}
	return true
}

// stop wakes the sender goroutine for shutdown; it is idempotent.
func (v *viewerState) stop() {
	v.once.Do(func() { close(v.quit) })
}

// drain releases every payload reference still sitting in the queue. It
// is called after the viewer can no longer be enqueued to (sender exit,
// removal from its shard), and is safe to run concurrently with a late
// consumer.
func (v *viewerState) drain() {
	for {
		select {
		case m := <-v.ch:
			m.release()
		default:
			return
		}
	}
}

// run drains the queue onto the viewer's connection. A write error closes
// the connection; the viewer's read loop then triggers OnClose and the
// hub removes it.
func (v *viewerState) run() {
	defer v.drain()
	for {
		select {
		case <-v.quit:
			return
		case m := <-v.ch:
			var err error
			switch m.typeID {
			case rtmp.TypeVideo:
				err = v.conn.SendVideo(m.timestamp, m.payload)
			case rtmp.TypeAudio:
				err = v.conn.SendAudio(m.timestamp, m.payload)
			}
			m.release()
			if err != nil {
				v.conn.Close()
				return
			}
		}
	}
}

// shardMsg is the per-shard fan-out descriptor: the publisher parses the
// FLV tag header once and publishes one of these to every shard instead
// of touching any viewer itself.
type shardMsg struct {
	typeID     uint8
	timestamp  uint32
	isVideoKey bool
	sp         *rtmp.SharedPayload
}

// fanoutShard owns a disjoint subset of a hub's viewers. A dedicated
// worker delivers descriptors from ch, so K shards spread the per-viewer
// enqueue work across K cores. Viewer resync state
// (waiting/needSeq/dropped) is only touched under mu by whichever
// goroutine is delivering, so it needs no extra locking.
type fanoutShard struct {
	h    *hub
	ch   chan shardMsg
	quit chan struct{}
	// nviewers mirrors len(viewers) so the publisher can skip empty
	// shards without taking mu: most simulated broadcasts have 0-1
	// viewers, and an idle hub must not pay K retains and worker wakeups
	// per message. A viewer attaching in the skip window only misses
	// messages it would have skipped anyway (it waits for a keyframe).
	nviewers atomic.Int32

	mu      sync.Mutex
	viewers []*viewerState
	stopped bool
}

// attach registers v and queues the current sequence headers so they
// always precede media. It reports false when the shard has stopped.
func (sh *fanoutShard) attach(v *viewerState) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.stopped {
		return false
	}
	if hd := sh.h.seqHdrs.Load(); hd != nil {
		if hd.video != nil {
			v.enqueue(outMsg{typeID: rtmp.TypeVideo, payload: hd.video})
		}
		if hd.audio != nil {
			v.enqueue(outMsg{typeID: rtmp.TypeAudio, payload: hd.audio})
		}
	}
	sh.viewers = append(sh.viewers, v)
	sh.nviewers.Store(int32(len(sh.viewers)))
	return true
}

// remove detaches v; afterwards no delivery can enqueue to it, so the
// caller may drain its queue.
func (sh *fanoutShard) remove(v *viewerState) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i, w := range sh.viewers {
		if w == v {
			last := len(sh.viewers) - 1
			sh.viewers[i] = sh.viewers[last]
			sh.viewers[last] = nil
			sh.viewers = sh.viewers[:last]
			sh.nviewers.Store(int32(len(sh.viewers)))
			return
		}
	}
}

// publish hands one descriptor (and one payload reference) to the shard
// worker. After shutdown the reference is dropped instead. A send that
// races shutdown can strand a reference in the channel; the buffer is
// then reclaimed by GC rather than the pool, which is harmless.
func (sh *fanoutShard) publish(m shardMsg) {
	select {
	case sh.ch <- m:
	case <-sh.quit:
		m.sp.Release()
	}
}

// run is the shard worker loop.
func (sh *fanoutShard) run() {
	for {
		select {
		case <-sh.quit:
			sh.drainCh()
			return
		case m := <-sh.ch:
			sh.deliver(m)
			m.sp.Release()
		}
	}
}

func (sh *fanoutShard) drainCh() {
	for {
		select {
		case m := <-sh.ch:
			m.sp.Release()
		default:
			return
		}
	}
}

// deliver fans one message out to this shard's viewers. The caller keeps
// its payload reference; deliver takes one per viewer queue.
func (sh *fanoutShard) deliver(m shardMsg) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := 0; i < len(sh.viewers); i++ {
		v := sh.viewers[i]
		if v.waiting {
			if !m.isVideoKey {
				continue
			}
			if v.needSeq {
				// Drops may have evicted the queued sequence headers; the
				// stream is undecodable without them, so re-send before
				// the keyframe that restarts playback.
				if hd := sh.h.seqHdrs.Load(); hd != nil {
					if hd.video != nil {
						v.enqueue(outMsg{typeID: rtmp.TypeVideo, payload: hd.video})
					}
					if hd.audio != nil {
						v.enqueue(outMsg{typeID: rtmp.TypeAudio, payload: hd.audio})
					}
				}
				v.needSeq = false
				// Count only drop-induced resyncs (needSeq is set by the
				// drop path), not every viewer's initial join sync — the
				// metric reads as drop-recovery churn in the snapshot.
				sh.h.stats.resyncs.Add(1)
			}
			v.waiting = false
		}
		m.sp.Retain()
		if v.enqueue(outMsg{typeID: m.typeID, timestamp: m.timestamp, payload: m.sp.Bytes(), ref: m.sp}) {
			v.dropped++
			sh.h.stats.drops.Add(1)
			// A dropped message may have been video (or the sequence
			// headers), leaving the decoder mid-GOP: hold this viewer
			// until the next keyframe and refresh its headers there.
			v.waiting = true
			v.needSeq = true
			if v.dropped >= viewerMaxDrops {
				// Hopeless consumer: disconnect exactly once and remove it
				// from the shard so no later message can close it again.
				last := len(sh.viewers) - 1
				sh.viewers[i] = sh.viewers[last]
				sh.viewers[last] = nil
				sh.viewers = sh.viewers[:last]
				sh.nviewers.Store(int32(len(sh.viewers)))
				i--
				v.conn.Close()
				v.stop()
				v.drain()
				sh.h.forget(v.conn)
				sh.h.stats.hopeless.Add(1)
			}
		}
	}
}

// stopShard detaches and stops every viewer, then stops the worker.
func (sh *fanoutShard) stopShard() {
	sh.mu.Lock()
	sh.stopped = true
	viewers := sh.viewers
	sh.viewers = nil
	sh.nviewers.Store(0)
	sh.mu.Unlock()
	close(sh.quit)
	for _, v := range viewers {
		v.stop()
		v.drain()
	}
}

// seqHeaders is an immutable snapshot of the cached FLV sequence headers,
// published on the hub so shard workers can resync viewers without taking
// the hub lock. The buffers are hub-owned copies, never pooled.
type seqHeaders struct {
	video []byte // AVC sequence header tag data
	audio []byte // AAC sequence header tag data
}

// feedMsg carries one media message (and one payload reference) to the
// HLS feed worker. vt is the tag header parsed by the publisher; its Data
// points into the shared payload.
type feedMsg struct {
	typeID    uint8
	timestamp uint32
	vt        flv.VideoTagData
	sp        *rtmp.SharedPayload
}

// hlsFeed repackages media into the segmenter on its own goroutine, so TS
// muxing cost never rides the publisher's read loop.
type hlsFeed struct {
	h    *hub
	ch   chan feedMsg
	quit chan struct{}
}

// publish hands one message to the feed worker, blocking if the muxer is
// behind: segments must not have holes, so there is no drop policy here.
func (f *hlsFeed) publish(m feedMsg) {
	select {
	case f.ch <- m:
	case <-f.quit:
		m.sp.Release()
	}
}

func (f *hlsFeed) run() {
	for {
		select {
		case <-f.quit:
			f.drainCh()
			return
		case m := <-f.ch:
			if seg := f.h.seg.Load(); seg != nil {
				feedSegmenter(seg, m.typeID, m.timestamp, m.sp.Bytes(), m.vt)
				f.h.maybeWarmAfterFirstSegment(seg)
			}
			m.sp.Release()
		}
	}
}

func (f *hlsFeed) drainCh() {
	for {
		select {
		case m := <-f.ch:
			m.sp.Release()
		default:
			return
		}
	}
}

// hub is the per-broadcast distribution pipeline: the publisher's read
// loop parses each message once and publishes a descriptor to K fan-out
// shards (and the HLS feed), instead of walking every viewer inline.
type hub struct {
	svc *Service
	b   *broadcastmodel.Broadcast

	shards []*fanoutShard

	seqHdrs atomic.Pointer[seqHeaders]
	seg     atomic.Pointer[hls.Segmenter]
	feed    atomic.Pointer[hlsFeed]
	// warmedWindow flips once the first HLS segment exists and the cluster
	// anchors have been re-warmed: the promotion-time warm-up ran against
	// an empty window, so there was nothing to prefetch yet.
	warmedWindow atomic.Bool

	// stats are the shard-level delivery counters (drops, resyncs,
	// hopeless disconnects), folded into the service aggregate when the
	// broadcast ends.
	stats deliveryCounters

	mu      sync.Mutex
	byConn  map[*rtmp.ServerConn]*viewerState
	next    int // round-robin attach cursor
	stopCh  chan struct{}
	stopped bool
	pub     *rtmp.Client
	enc     *media.Encoder
}

func newHub(s *Service, b *broadcastmodel.Broadcast) *hub {
	return newFanoutHub(s, b, fanoutShardCount())
}

// newFanoutHub builds a hub with an explicit shard count.
func newFanoutHub(s *Service, b *broadcastmodel.Broadcast, shards int) *hub {
	if shards < 1 {
		shards = 1
	}
	h := &hub{
		svc:    s,
		b:      b,
		byConn: map[*rtmp.ServerConn]*viewerState{},
		stopCh: make(chan struct{}),
	}
	for i := 0; i < shards; i++ {
		sh := &fanoutShard{h: h, ch: make(chan shardMsg, shardQueueDepth), quit: make(chan struct{})}
		h.shards = append(h.shards, sh)
		go sh.run()
	}
	return h
}

// startBroadcaster dials the regional ingest server and begins pushing the
// synthetic stream in real time.
func (h *hub) startBroadcaster() error {
	ing, ok := h.svc.ingest[h.b.Region]
	if !ok {
		return fmt.Errorf("service: region %q has no ingest", h.b.Region)
	}
	nc, err := net.Dial("tcp", ing.srv.Addr().String())
	if err != nil {
		return err
	}
	cli, err := rtmp.NewClientConn(nc, "live", "rtmp://vidman-"+h.b.Region+".periscope.tv:80/live")
	if err != nil {
		nc.Close()
		return err
	}
	if err := cli.Publish(h.b.ID); err != nil {
		cli.Close()
		return err
	}
	h.pub = cli

	rng := rand.New(rand.NewSource(h.b.Seed))
	cfg := media.RandomEncoderConfig(rng)
	cfg.EmitPayload = true
	cfg.SEIPeriod = 500 * time.Millisecond
	enc := media.NewEncoder(cfg, time.Now())
	h.enc = enc

	go h.produce(cli, enc, rng)
	return nil
}

// produce runs the broadcaster: FLV sequence headers, then paced AV tags.
func (h *hub) produce(cli *rtmp.Client, enc *media.Encoder, rng *rand.Rand) {
	defer cli.Close()
	// Sequence headers first.
	acfg := aac.DefaultConfig()
	if rng.Intn(2) == 1 {
		acfg.Bitrate = 64000 // paper: ~32 or 64 kbps VBR
	}
	videoSeq := flv.VideoTagData{
		FrameType:  flv.VideoKeyFrame,
		PacketType: flv.AVCSeqHeader,
		Data:       flv.DecoderConfig(enc.SPS(), enc.PPS()),
	}.Marshal()
	audioSeq := flv.AudioTagData{PacketType: flv.AACSeqHeader, Data: acfg.AudioSpecificConfig()}.Marshal()
	h.seqHdrs.Store(&seqHeaders{video: videoSeq, audio: audioSeq})
	if err := cli.WriteVideo(0, videoSeq); err != nil {
		return
	}
	if err := cli.WriteAudio(0, audioSeq); err != nil {
		return
	}

	sizer := aac.NewFrameSizer(acfg, rng.Int63())
	start := time.Now()
	var audioPTS time.Duration
	for {
		select {
		case <-h.stopCh:
			return
		default:
		}
		f := enc.NextFrame()
		// Pace production to real time.
		if sleep := time.Until(start.Add(f.PTS)); sleep > 0 {
			select {
			case <-h.stopCh:
				return
			case <-time.After(sleep):
			}
		}
		if !f.Dropped {
			frameType := flv.VideoInterFrame
			if f.Keyframe {
				frameType = flv.VideoKeyFrame
			}
			tag := flv.VideoTagData{
				FrameType:       frameType,
				PacketType:      flv.AVCNALU,
				CompositionTime: int32((f.PTS - f.DTS).Milliseconds()),
				Data:            avc.MarshalAVCC(f.NALs),
			}.Marshal()
			if err := cli.WriteVideo(uint32(f.DTS.Milliseconds()), tag); err != nil {
				return
			}
		}
		// Interleave audio frames up to the video position.
		for audioPTS <= f.PTS {
			atag := flv.AudioTagData{PacketType: flv.AACRaw, Data: sizer.NextFrame()}.Marshal()
			if err := cli.WriteAudio(uint32(audioPTS.Milliseconds()), atag); err != nil {
				return
			}
			audioPTS += aac.FrameDuration
		}
	}
}

// addViewer attaches an RTMP viewer to the next shard round-robin; it
// receives the sequence headers immediately and media from the next
// keyframe.
func (h *hub) addViewer(c *rtmp.ServerConn) {
	v := &viewerState{
		conn:    c,
		ch:      make(chan outMsg, viewerQueueDepth),
		quit:    make(chan struct{}),
		waiting: true,
	}
	h.mu.Lock()
	if h.stopped {
		// Racing hub.stop(): nothing will ever stop a viewer attached
		// now, so refuse it instead of leaking its sender goroutine.
		h.mu.Unlock()
		c.Close()
		return
	}
	sh := h.shards[h.next%len(h.shards)]
	h.next++
	v.shard = sh
	h.byConn[c] = v
	h.mu.Unlock()
	if !sh.attach(v) {
		// The shard stopped between the checks; undo the registration.
		h.forget(c)
		c.Close()
		return
	}
	go v.run()
}

// removeViewer detaches c's viewer (OnClose). It is a no-op when the
// delivery path already removed the viewer as hopeless.
func (h *hub) removeViewer(c *rtmp.ServerConn) {
	h.mu.Lock()
	v := h.byConn[c]
	delete(h.byConn, c)
	h.mu.Unlock()
	if v == nil {
		return
	}
	v.shard.remove(v)
	v.stop()
	// Nothing can enqueue after remove, so the queue drains exactly once
	// here (the sender goroutine may race a last consume — both release).
	v.drain()
}

// forget drops the conn→viewer registration without touching the shard
// (used by the delivery path, which edits its own viewer list).
func (h *hub) forget(c *rtmp.ServerConn) {
	h.mu.Lock()
	delete(h.byConn, c)
	h.mu.Unlock()
}

// ViewerCount reports attached RTMP viewers (tests).
func (h *hub) ViewerCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.byConn)
}

// viewerFor returns the live viewer state for c (tests).
func (h *hub) viewerFor(c *rtmp.ServerConn) *viewerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.byConn[c]
}

// cacheSeqHeader snapshots a sequence-header tag for late joiners. The
// pooled payload will be recycled after fan-out, so the cache keeps its
// own copy. Only the publisher's read goroutine updates the snapshot.
func (h *hub) cacheSeqHeader(typeID uint8, payload []byte) {
	hd := &seqHeaders{}
	if cur := h.seqHdrs.Load(); cur != nil {
		*hd = *cur
	}
	cp := append([]byte(nil), payload...)
	if typeID == rtmp.TypeVideo {
		hd.video = cp
	} else {
		hd.audio = cp
	}
	h.seqHdrs.Store(hd)
}

// onMedia routes one publisher message: parse the FLV tag header once,
// wrap the pooled payload in a refcount, publish a descriptor to every
// shard and the HLS feed, then drop the caller's reference. The payload
// returns to the chunk-layer pool when the last viewer queue drains.
func (h *hub) onMedia(msg rtmp.Message) {
	isVideoKey := false
	var vt flv.VideoTagData
	switch msg.TypeID {
	case rtmp.TypeVideo:
		if parsed, err := flv.ParseVideoTagData(msg.Payload); err == nil {
			vt = parsed
			if vt.PacketType == flv.AVCSeqHeader {
				h.cacheSeqHeader(rtmp.TypeVideo, msg.Payload)
			}
			isVideoKey = vt.FrameType == flv.VideoKeyFrame && vt.PacketType == flv.AVCNALU
		}
	case rtmp.TypeAudio:
		if parsed, err := flv.ParseAudioTagData(msg.Payload); err == nil && parsed.PacketType == flv.AACSeqHeader {
			h.cacheSeqHeader(rtmp.TypeAudio, msg.Payload)
		}
	}

	sp := rtmp.SharePayload(msg.Payload)
	m := shardMsg{typeID: msg.TypeID, timestamp: msg.Timestamp, isVideoKey: isVideoKey, sp: sp}
	for _, sh := range h.shards {
		if sh.nviewers.Load() == 0 {
			continue
		}
		sp.Retain()
		sh.publish(m)
	}
	// enableHLS stores the feed before the segmenter.
	if h.seg.Load() != nil {
		sp.Retain()
		h.feed.Load().publish(feedMsg{typeID: msg.TypeID, timestamp: msg.Timestamp, vt: vt, sp: sp})
	}
	sp.Release()
}

// maybeWarmAfterFirstSegment re-warms the cluster anchors once the
// segmenter has cut its first segment. The warm-up scheduled at promotion
// fetched an empty playlist, so the prefetch that actually populates the
// anchors — and lets their cluster followers peer-fill instead of hitting
// the origin — has to run again when there is a window to prefetch. If an
// anchor's fill queue rejects the job, the flag reverts so a later media
// message retries instead of losing the re-warm for good.
func (h *hub) maybeWarmAfterFirstSegment(seg *hls.Segmenter) {
	if h.warmedWindow.Load() || seg.SegmentCount() == 0 {
		return
	}
	if !h.warmedWindow.CompareAndSwap(false, true) {
		return
	}
	scheduled := true
	for _, pop := range h.svc.cdn {
		if pop.isClusterAnchor() && !pop.warm(h.b.ID) {
			scheduled = false
		}
	}
	if !scheduled {
		h.warmedWindow.Store(false)
	}
}

// feedSegmenter repackages FLV tags into the MPEG-TS segmenter — the
// "transcode, repackage and deliver to Fastly" step the paper hypothesises
// for popular broadcasts. The segmenter copies into TS packets before
// returning, so the caller may release the payload afterwards.
func feedSegmenter(seg *hls.Segmenter, typeID uint8, timestamp uint32, payload []byte, vt flv.VideoTagData) {
	now := time.Now()
	switch typeID {
	case rtmp.TypeVideo:
		if vt.PacketType != flv.AVCNALU {
			return
		}
		units, err := avc.ParseAVCC(vt.Data)
		if err != nil {
			return
		}
		dts := time.Duration(timestamp) * time.Millisecond
		pts := dts + time.Duration(vt.CompositionTime)*time.Millisecond
		seg.WriteVideo(now, pts, dts, vt.FrameType == flv.VideoKeyFrame, avc.MarshalAnnexB(units))
	case rtmp.TypeAudio:
		at, err := flv.ParseAudioTagData(payload)
		if err != nil || at.PacketType != flv.AACRaw {
			return
		}
		pts := time.Duration(timestamp) * time.Millisecond
		seg.WriteAudio(now, pts, at.Data)
	}
}

// enableHLS attaches a segmenter (with its feed worker), mounts it at the
// CDN origin tier, and registers an edge replica with every POP
// (idempotent).
func (h *hub) enableHLS() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.seg.Load() != nil {
		return nil
	}
	if h.stopped {
		return fmt.Errorf("service: broadcast %s ended", h.b.ID)
	}
	seg := hls.NewSegmenter(h.svc.cfg.SegmentTarget, hls.DefaultWindowSize)
	h.svc.origin.register(h.b.ID, seg)
	for _, pop := range h.svc.cdn {
		pop.register(h.b.ID, seg)
		// Promotion warm-up: cluster anchors prefetch the live window in
		// the background so the first viewer does not eat a cold-cache miss
		// storm. Followers stay cold on purpose — their first fill probes
		// the warm anchor peer, keeping promotion origin egress at
		// O(clusters) instead of every POP warming from origin at once.
		if pop.isClusterAnchor() {
			pop.warm(h.b.ID)
		}
	}
	f := &hlsFeed{h: h, ch: make(chan feedMsg, feedQueueDepth), quit: make(chan struct{})}
	// Publish the feed before the segmenter: onMedia loads them in the
	// opposite order, so a visible segmenter implies a visible feed.
	h.feed.Store(f)
	go f.run()
	h.seg.Store(seg)
	return nil
}

// Segmenter exposes the HLS pipeline (tests and analysis).
func (h *hub) Segmenter() *hls.Segmenter {
	return h.seg.Load()
}

// stop tears the pipeline down: publisher, shards (stopping and draining
// every viewer), HLS feed, segmenter. The chat room is NOT closed here —
// Service.EndBroadcast closes it after the CDN linger, so members can
// keep chatting while HLS viewers drain the final window.
func (h *hub) stop() {
	h.mu.Lock()
	if h.stopped {
		h.mu.Unlock()
		return
	}
	h.stopped = true
	close(h.stopCh)
	h.mu.Unlock()
	for _, sh := range h.shards {
		sh.stopShard()
	}
	if f := h.feed.Load(); f != nil {
		close(f.quit)
	}
	if seg := h.seg.Load(); seg != nil {
		seg.Finish(time.Now())
	}
}
