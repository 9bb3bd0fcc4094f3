package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"periscope/internal/broadcastmodel"
	"periscope/internal/media"
	"periscope/internal/service"
)

// Workload names.
const (
	wlFlashCrowd  = "flash-crowd"
	wlIngestFleet = "ingest-fleet"
	wlAPIChurn    = "api-churn"
)

// flashBroadcastsPerPOP is how many broadcasts flash-crowd promotes on
// each of the two POPs.
const flashBroadcastsPerPOP = 8

// ingestBroadcasts is how many broadcasts ingest-fleet runs: about all
// the public ones of the service's 300.
const ingestBroadcasts = 270

// coldHLSEvery makes every coldHLSEvery-th cold broadcast of api-churn
// popular (its accessVideo starts HLS and registers it with the CDN); the
// others stay below the HLS threshold and play over RTMP.
const coldHLSEvery = 5

// setupTimeout bounds the wait for every broadcast's first segment.
const setupTimeout = 60 * time.Second

// coldMinRemaining is how long a broadcast handed out for cold accessVideo
// calls must still be scheduled to live, so the population's own churn
// cannot end it during a run (a window of at most a minute plus the drain).
const coldMinRemaining = 2 * time.Minute

// serviceConfig is the service configuration each workload runs. api-churn
// runs the configuration cmd/periscoped runs (population churn on, rate
// limiter on). The media workloads run the service defaults without the
// modelled CDN link delay, as the repository's benchmarks do: the fill
// hierarchy stays, but a fill no longer sleeps for a WAN round trip, so
// the numbers measure the program rather than a sleep.
func serviceConfig(workload string) service.Config {
	cfg := service.DefaultConfig()
	if workload == wlAPIChurn {
		cfg.ChurnInterval = 2 * time.Second
	} else {
		cfg.CDNLinkRTTScale = -1
	}
	return cfg
}

// launcher owns the service in the child process.
type launcher struct {
	workload string
	cfg      service.Config
	svc      *service.Service
	ids      []string // the broadcasts the setup started

	watchStop chan struct{}
	watchDone chan watchResult

	cpuMu      sync.Mutex
	cpuSamples []cpuSample
}

// runLauncher starts the service for workload and answers control
// requests from stdin until stdin closes, then shuts the service down.
func runLauncher(workload string) error {
	if _, ok := workloads[workload]; !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	cfg := serviceConfig(workload)
	svc, err := service.Start(cfg)
	if err != nil {
		return fmt.Errorf("starting service: %w", err)
	}
	l := &launcher{workload: workload, cfg: cfg, svc: svc}
	defer svc.Close()
	defer l.stopWatch()
	stopCPU := make(chan struct{})
	cpuDone := make(chan struct{})
	go l.sampleCPU(stopCPU, cpuDone)
	defer func() {
		close(stopCPU)
		<-cpuDone
	}()

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 64<<10), 1<<20)
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	for in.Scan() {
		var req ctlRequest
		if err := json.Unmarshal(in.Bytes(), &req); err != nil {
			return fmt.Errorf("decoding control request: %w", err)
		}
		if err := enc.Encode(l.handle(req)); err != nil {
			return fmt.Errorf("writing control response: %w", err)
		}
		if err := out.Flush(); err != nil {
			return fmt.Errorf("writing control response: %w", err)
		}
	}
	return in.Err()
}

// handle runs one control request, timing the service call it makes.
func (l *launcher) handle(req ctlRequest) ctlResponse {
	var data any
	var err error
	start := time.Now()
	switch req.Op {
	case opSetup:
		data, err = l.setup()
	case opAccess:
		data, err = l.svc.AccessVideo(req.ID)
	case opEnd:
		l.svc.EndBroadcast(req.ID)
	case opSnapshot:
		data = reduceSnapshot(l.svc.Snapshot())
	case opUsage:
		var u usage
		u, err = readUsage()
		l.cpuMu.Lock()
		u.CPUSamples = append([]cpuSample(nil), l.cpuSamples...)
		l.cpuMu.Unlock()
		data = u
	case opWatch:
		l.startWatch()
	case opWatchStop:
		data = l.stopWatch()
	case opDrain:
		data = l.drain(time.Duration(req.Arg) * time.Millisecond)
	default:
		err = fmt.Errorf("unknown op %q", req.Op)
	}
	resp := ctlResponse{NS: time.Since(start).Nanoseconds()}
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	if data != nil {
		raw, merr := json.Marshal(data)
		if merr != nil {
			resp.Err = merr.Error()
			return resp
		}
		resp.Data = raw
	}
	return resp
}

// publicLive returns the live, non-private broadcasts sorted by ID: the
// population map's order is random, the benchmark's choice must not be.
func publicLive(pop *broadcastmodel.Population) []*broadcastmodel.Broadcast {
	var out []*broadcastmodel.Broadcast
	for _, b := range pop.Live() {
		if !b.Private {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// fixMedia gives the broadcast in benchmark slot i a fixed media seed.
// The population draws its broadcasts with weights that follow the wall
// clock's time of day, so which broadcasts are live, and with which
// encoder settings, drifts over minutes; fixing the seed of the broadcasts
// a workload uses keeps its media, and so the service's work, the same in
// every run.
func fixMedia(b *broadcastmodel.Broadcast, i int) {
	b.Seed = int64(i) + 1
}

// promote makes b popular enough for HLS the way the scenario harness
// does: a raised base audience and a start backdated past the arrival
// ramp. It runs before AccessVideo and before any viewer exists.
func promote(b *broadcastmodel.Broadcast, now time.Time, threshold int) error {
	b.BaseViewers = 500
	if now.Sub(b.Start) < 10*time.Minute {
		b.Start = now.Add(-10 * time.Minute)
	}
	if v := b.ViewersAt(now); v < threshold {
		return fmt.Errorf("promoted broadcast %s has %d < %d viewers", b.ID, v, threshold)
	}
	return nil
}

// setup prepares the workload's broadcasts and reports them once each is
// live over HLS and has cut its first segment.
func (l *launcher) setup() (setupInfo, error) {
	info := setupInfo{
		APIBase:  l.svc.APIBaseURL(),
		LingerMS: l.cfg.CDNUnregisterLinger.Milliseconds(),
	}
	pop := l.svc.Pop
	now := pop.Now()
	var picked []*broadcastmodel.Broadcast
	switch l.workload {
	case wlFlashCrowd:
		perPOP := map[int]int{}
		for _, b := range publicLive(pop) {
			p := l.svc.PreferredPOPIndex(b.ID)
			if p < 2 && perPOP[p] < flashBroadcastsPerPOP {
				perPOP[p]++
				picked = append(picked, b)
			}
		}
		if len(picked) != 2*flashBroadcastsPerPOP {
			return info, fmt.Errorf("found %d broadcasts for two POPs, want %d", len(picked), 2*flashBroadcastsPerPOP)
		}
	case wlIngestFleet:
		picked = publicLive(pop)
		if len(picked) < ingestBroadcasts {
			return info, fmt.Errorf("only %d public broadcasts, want %d", len(picked), ingestBroadcasts)
		}
		picked = picked[:ingestBroadcasts]
	case wlAPIChurn:
		for _, b := range pop.Live() {
			info.LiveIDs = append(info.LiveIDs, b.ID)
		}
		sort.Strings(info.LiveIDs)
		for _, b := range publicLive(pop) {
			if b.End.Sub(now) <= coldMinRemaining {
				continue
			}
			i := len(info.ColdIDs)
			fixMedia(b, i)
			if i%coldHLSEvery == 0 {
				if err := promote(b, now, l.cfg.HLSViewerThreshold); err != nil {
					return info, err
				}
			} else {
				b.BaseViewers = 1
			}
			info.ColdIDs = append(info.ColdIDs, b.ID)
		}
		// The service is ready once the population clock has moved: the
		// API rate limiter runs on that clock and cannot refill before.
		deadline := time.Now().Add(setupTimeout)
		for pop.Now().Equal(now) {
			if time.Now().After(deadline) {
				return info, fmt.Errorf("population clock did not advance within %v", setupTimeout)
			}
			time.Sleep(time.Millisecond)
		}
		return info, nil
	}
	for i, b := range picked {
		fixMedia(b, i)
		if err := promote(b, now, l.cfg.HLSViewerThreshold); err != nil {
			return info, err
		}
	}
	popBases := map[int]string{}
	for _, b := range picked {
		resp, err := l.svc.AccessVideo(b.ID)
		if err != nil {
			return info, fmt.Errorf("access %s: %w", b.ID, err)
		}
		if resp.Protocol != "HLS" {
			return info, fmt.Errorf("access %s: protocol %s, want HLS", b.ID, resp.Protocol)
		}
		p := l.svc.PreferredPOPIndex(b.ID)
		popBases[p] = strings.TrimSuffix(resp.HLSBaseURL, "/hls/"+b.ID)
		info.Broadcasts = append(info.Broadcasts, bcastInfo{ID: b.ID, POP: p, HLSBase: resp.HLSBaseURL})
		l.ids = append(l.ids, b.ID)
	}
	for i := 0; i < len(popBases); i++ {
		info.POPBases = append(info.POPBases, popBases[i])
	}
	if l.workload == wlIngestFleet {
		// The RTMP probe plays the broadcast with the highest frame rate,
		// for the most frames per run.
		probe := picked[0]
		for _, b := range picked[1:] {
			if frameRate(b) > frameRate(probe) {
				probe = b
			}
		}
		info.ProbeID = probe.ID
		info.ProbeSeed = probe.Seed
		rev := l.svc.RTMPServerNames()["vidman-"+probe.Region+".periscope.tv"]
		info.ProbeAddr = strings.TrimSuffix(strings.TrimPrefix(rev, "ec2-"), ".compute.amazonaws.com")
		if info.ProbeAddr == "" {
			return info, fmt.Errorf("no ingest server for region %q", probe.Region)
		}
	}
	deadline := time.Now().Add(setupTimeout)
	for _, id := range l.ids {
		for l.svc.BroadcastSegments(id) < 1 {
			if time.Now().After(deadline) {
				return info, fmt.Errorf("broadcast %s cut no segment within %v", id, setupTimeout)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return info, nil
}

// frameRate is the nominal frame rate of b's broadcaster, derived from its
// seed the way the service derives it.
func frameRate(b *broadcastmodel.Broadcast) float64 {
	return media.RandomEncoderConfig(rand.New(rand.NewSource(b.Seed))).FrameRate
}

// reduceSnapshot keeps the counters the benchmark reads.
func reduceSnapshot(s service.Snapshot) snap {
	out := snap{
		LiveHubs:          s.Delivery.LiveHubs,
		Drops:             s.Delivery.Drops,
		Resyncs:           s.Delivery.Resyncs,
		Hopeless:          s.Delivery.HopelessDisconnects,
		OriginBroadcasts:  s.Origin.Broadcasts,
		OriginPlaylistReq: s.Origin.PlaylistRequests,
		OriginSegmentReq:  s.Origin.SegmentRequests,
		Rooms:             s.Chat.Rooms,
		ChatMessagesOut:   s.Chat.MessagesOut,
		ChatDrops:         s.Chat.Drops,
	}
	for _, p := range s.POPs {
		out.POPs = append(out.POPs, popSnap{
			Fills:            p.Fills,
			FillErrors:       p.FillErrors,
			FillRetries:      p.FillRetries,
			FillCapWaits:     p.FillCapWaits,
			SingleFlightHits: p.SingleFlightHits,
			PeerFills:        p.PeerFills,
			StaleServes:      p.StaleServes,
			Warmups:          p.Warmups,
			MaxPlaylistAgeNS: p.MaxPlaylistAge.Nanoseconds(),
		})
	}
	return out
}

// readUsage reports the process's CPU time and peak RSS, and the Go
// runtime's GC CPU and allocation totals.
func readUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, fmt.Errorf("getrusage: %w", err)
	}
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	return usage{
		CPUNS:      ru.Utime.Nano() + ru.Stime.Nano(),
		MaxRSSKB:   ru.Maxrss,
		GCCPUSec:   samples[0].Value.Float64(),
		GoCPUSec:   samples[1].Value.Float64(),
		AllocBytes: samples[2].Value.Uint64(),
	}, nil
}

// cpuTick is how often the launcher samples its own CPU time: the
// benchmark reports the median of the service's CPU rate over these
// intervals, which a burst of noise from the host moves less than the
// window's mean.
const cpuTick = 500 * time.Millisecond

// sampleCPU records the process's CPU time every cpuTick until stop
// closes, then closes done.
func (l *launcher) sampleCPU(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(cpuTick)
	defer t.Stop()
	for {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
			at := time.Now()
			l.cpuMu.Lock()
			l.cpuSamples = append(l.cpuSamples, cpuSample{AtNS: at.UnixNano(), CPUNS: ru.Utime.Nano() + ru.Stime.Nano()})
			l.cpuMu.Unlock()
		}
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// Traced-run poller cadence: BroadcastSegments every watchTick (the
// resolution of hub.cut_lag), a Snapshot every watchSnapEvery ticks.
const (
	watchTick      = 10 * time.Millisecond
	watchSnapEvery = 25
)

// startWatch starts the traced-run poller over the setup's broadcasts.
func (l *launcher) startWatch() {
	if l.watchStop != nil {
		return
	}
	l.watchStop = make(chan struct{})
	l.watchDone = make(chan watchResult, 1)
	go l.watch(l.watchStop, l.watchDone)
}

// stopWatch stops the poller and returns what it saw (zero when none ran).
func (l *launcher) stopWatch() watchResult {
	if l.watchStop == nil {
		return watchResult{}
	}
	close(l.watchStop)
	res := <-l.watchDone
	l.watchStop, l.watchDone = nil, nil
	return res
}

// watch records when each segment cut becomes visible through
// BroadcastSegments, and the largest edge playlist age in periodic
// snapshots.
func (l *launcher) watch(stop <-chan struct{}, done chan<- watchResult) {
	var res watchResult
	seen := make([]int, len(l.ids))
	for i, id := range l.ids {
		seen[i] = l.svc.BroadcastSegments(id)
	}
	t := time.NewTicker(watchTick)
	defer t.Stop()
	for tick := 0; ; tick++ {
		select {
		case <-stop:
			done <- res
			return
		case <-t.C:
		}
		for i, id := range l.ids {
			start := time.Now()
			n := l.svc.BroadcastSegments(id)
			at := time.Now()
			res.SegmentsCalls++
			res.SegmentsNS += at.Sub(start).Nanoseconds()
			for ; seen[i] < n; seen[i]++ {
				res.Cuts = append(res.Cuts, cutEvent{ID: id, Seq: seen[i], AtNS: at.UnixNano()})
			}
		}
		if tick%watchSnapEvery == 0 {
			res.Samples++
			for _, p := range l.svc.Snapshot().POPs {
				if a := p.MaxPlaylistAge.Nanoseconds(); a > res.MaxPlaylistAgeNS {
					res.MaxPlaylistAgeNS = a
				}
			}
		}
	}
}

// drain waits up to timeout until no live pipeline, live origin mount or
// chat room is left, and reports what remained.
func (l *launcher) drain(timeout time.Duration) drainResult {
	start := time.Now()
	for {
		s := l.svc.Snapshot()
		res := drainResult{
			LiveHubs:         s.Delivery.LiveHubs,
			OriginBroadcasts: s.Origin.Broadcasts,
			Rooms:            s.Chat.Rooms,
			WaitedNS:         time.Since(start).Nanoseconds(),
		}
		if (res.LiveHubs == 0 && res.OriginBroadcasts == 0 && res.Rooms == 0) || time.Since(start) > timeout {
			return res
		}
		time.Sleep(100 * time.Millisecond)
	}
}
