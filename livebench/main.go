// Command livebench measures the live path of the Periscope-like service
// end to end: glass-to-glass latency, join time, stalls, API latency and
// the service's CPU and memory cost, on three workloads (flash-crowd,
// ingest-fleet, api-churn; see NOTES.md).
//
// The service runs in a child process started by this same binary in its
// launcher role, so its CPU time and resident memory are its own. The
// parent generates load on an open-loop schedule derived from -seed, on
// at most two goroutines and two client connections, and checks what the
// service returns. A traced run (-trace 1) records spans around every
// call the benchmark makes into a layer, replays a recorded ingest stream
// through the media layers, and reports per-layer metrics instead of the
// end-to-end ones.
//
// Usage (from the repository root, via run.sh, which builds it first):
//
//	bash livebench/run.sh --workload flash-crowd --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"

	"periscope/internal/api"
)

// A run launches and sets up the service at least minSetups times and
// until the set-ups add up to minSetupTotal (a quick set-up is noisy, so
// it is repeated more), at most maxSetups times. setup_s is the median;
// the last launch is the one measured.
const (
	minSetups     = 3
	maxSetups     = 25
	minSetupTotal = time.Second
)

// spanDir is where traced runs write their span files, relative to the
// directory the benchmark runs in.
const spanDir = ".bench_build/livebench"

// workloads maps each workload name to its load generator.
var workloads = map[string]func(*runCtx) error{
	wlFlashCrowd:  runFlashCrowd,
	wlIngestFleet: runIngestFleet,
	wlAPIChurn:    runAPIChurn,
}

func main() {
	role := flag.String("role", "bench", "bench (generate load and report) or service (the launcher child)")
	workload := flag.String("workload", "", "flash-crowd, ingest-fleet or api-churn")
	seed := flag.Int64("seed", 1, "seed the load schedule is derived from")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()

	if *role == "service" {
		if err := runLauncher(*workload); err != nil {
			fmt.Fprintln(os.Stderr, "livebench launcher:", err)
			os.Exit(1)
		}
		return
	}
	// The generator's heap is small; collecting it less often keeps its
	// GC from delaying due requests.
	debug.SetGCPercent(400)
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "livebench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "livebench: -seconds must be at least 1")
		os.Exit(2)
	}
	rep, err := runBench(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		os.Exit(1)
	}
}

// runCtx is what a workload's generator gets: the launched service, its
// set-up, the schedule parameters and the report to fill.
type runCtx struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	ctl      *ctl
	info     setupInfo
	rep      *report
	// epoch is the tracer's time origin.
	epoch time.Time
}

// runBench launches and sets up the service repeatedly, keeps the last
// launch, and runs the workload against it.
func runBench(workload string, seed int64, window time.Duration, traced bool) (*report, error) {
	rep := &report{workload: workload, traced: traced}
	var setups []float64
	var total time.Duration
	var c *ctl
	var info setupInfo
	for i := 0; i < maxSetups && (i < minSetups || total < minSetupTotal); i++ {
		if c != nil {
			if err := c.close(); err != nil {
				return nil, fmt.Errorf("closing set-up launch %d: %w", i, err)
			}
		}
		var d time.Duration
		var err error
		c, info, d, err = launch(workload)
		if err != nil {
			if c != nil {
				c.close()
			}
			return nil, err
		}
		setups = append(setups, d.Seconds())
		total += d
	}
	rep.value(false, "setup_s", "s", median(setups), fmt.Sprintf("median of %d launches", len(setups)))
	rc := &runCtx{
		workload: workload,
		seed:     seed,
		window:   window,
		traced:   traced,
		ctl:      c,
		info:     info,
		rep:      rep,
		epoch:    time.Now(),
	}
	runErr := workloads[workload](rc)
	closeErr := c.close()
	if runErr != nil {
		return nil, runErr
	}
	if closeErr != nil {
		return nil, fmt.Errorf("closing launcher: %w", closeErr)
	}
	return rep, nil
}

// launch starts a launcher and sets the workload up, timing both: the
// set-up ends when every workload broadcast is live and has cut its first
// segment, or for api-churn when the population clock (the rate
// limiter's clock) has ticked and the API answers.
func launch(workload string) (*ctl, setupInfo, time.Duration, error) {
	var info setupInfo
	start := time.Now()
	c, err := startLauncher(workload)
	if err != nil {
		return nil, info, 0, err
	}
	if _, err := c.call(ctlRequest{Op: opSetup}, &info); err != nil {
		return c, info, 0, err
	}
	if workload == wlAPIChurn {
		hc := newHTTPClient()
		defer hc.CloseIdleConnections()
		if _, err := api.NewClient(info.APIBase, "livebench-setup", hc).Teleport(); err != nil {
			return c, info, 0, fmt.Errorf("API did not answer: %w", err)
		}
	}
	return c, info, time.Since(start), nil
}

// bracketMark is the state at one edge of the measured window.
type bracketMark struct {
	at     time.Time
	svc    usage
	snap   snap
	snapNS time.Duration // Service.Snapshot inside the launcher
	genCPU time.Duration
}

// mark samples the service's usage and snapshot and the generator's CPU.
func (rc *runCtx) mark() (bracketMark, error) {
	var m bracketMark
	if _, err := rc.ctl.call(ctlRequest{Op: opUsage}, &m.svc); err != nil {
		return m, err
	}
	ns, err := rc.ctl.call(ctlRequest{Op: opSnapshot}, &m.snap)
	if err != nil {
		return m, err
	}
	m.snapNS = ns
	m.genCPU = processCPU()
	m.at = time.Now()
	return m, nil
}

// processCPU is this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// reportCommon adds the metrics every workload has: the service's CPU
// cores and peak memory, its Go runtime's GC share and allocation rate,
// the generator's lateness and CPU, and in a traced run the service's
// hub, POP, origin and chat counters.
func (rc *runCtx) reportCommon(b0, b1 bracketMark, lateMS []float64) {
	wall := b1.at.Sub(b0.at).Seconds()
	r := rc.rep
	rates := cpuRates(b1.svc.CPUSamples, b0.at, b1.at)
	if len(rates) == 0 {
		r.violate("server_cpu_cores: no %v CPU sample interval inside the window", cpuTick)
	}
	r.add(false, metric{Name: "server_cpu_cores", Unit: "cores", Value: median(rates), N: len(rates),
		Note: fmt.Sprintf("service process only; median of %v intervals, mean over the window %.4f",
			cpuTick, float64(b1.svc.CPUNS-b0.svc.CPUNS)/1e9/wall)})
	r.value(false, "peak_rss_mb", "MB", float64(b1.svc.MaxRSSKB)/1024, "service process only")
	gc, total := b1.svc.GCCPUSec-b0.svc.GCCPUSec, b1.svc.GoCPUSec-b0.svc.GoCPUSec
	frac := 0.0
	if total > 0 {
		frac = gc / total
	}
	r.value(true, "runtime.gc_cpu_fraction", "ratio", frac, fmt.Sprintf("of %.2f runtime CPU-s", total))
	r.value(true, "runtime.alloc_bytes_per_s", "B/s", float64(b1.svc.AllocBytes-b0.svc.AllocBytes)/wall, "")
	r.timing(true, "gen.late_%s_ms", "ms", lateMS, 0.99)
	r.value(true, "gen.cpu_cores", "cores", (b1.genCPU-b0.genCPU).Seconds()/wall, "generator process")
	r.value(true, "service.snapshot_us", "us", (b0.snapNS+b1.snapNS).Seconds()*1e6/2, "mean of the window's two Snapshot calls")
	if !rc.traced {
		return
	}
	// The service's counters over the window, whichever layer the
	// workload loads: a workload that leaves a layer idle reports it so.
	r.count(true, "hub.drops", b1.snap.Drops-b0.snap.Drops)
	r.count(true, "hub.resyncs", b1.snap.Resyncs-b0.snap.Resyncs)
	r.count(true, "hub.hopeless", b1.snap.Hopeless-b0.snap.Hopeless)
	d := popDelta(b0.snap, b1.snap)
	r.count(true, "pop.fills", d.Fills)
	r.count(true, "pop.peer_fills", d.PeerFills)
	r.count(true, "pop.single_flight_hits", d.SingleFlightHits)
	r.count(true, "pop.stale_serves", d.StaleServes)
	r.count(true, "pop.fill_cap_waits", d.FillCapWaits)
	r.count(true, "pop.fill_errors", d.FillErrors)
	r.count(true, "pop.fill_retries", d.FillRetries)
	r.value(true, "origin.playlist_requests_per_s", "1/s", float64(b1.snap.OriginPlaylistReq-b0.snap.OriginPlaylistReq)/wall, "")
	r.value(true, "origin.segment_requests_per_s", "1/s", float64(b1.snap.OriginSegmentReq-b0.snap.OriginSegmentReq)/wall, "")
	r.value(true, "chat.messages_out_per_s", "1/s", float64(b1.snap.ChatMessagesOut-b0.snap.ChatMessagesOut)/wall, "")
	r.count(true, "chat.queue_drops", b1.snap.ChatDrops-b0.snap.ChatDrops)
}

// cpuRates returns the CPU cores used over each interval between
// consecutive samples that lies inside [from, to].
func cpuRates(samples []cpuSample, from, to time.Time) []float64 {
	var rates []float64
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		if a.AtNS < from.UnixNano() || b.AtNS > to.UnixNano() || b.AtNS <= a.AtNS {
			continue
		}
		rates = append(rates, float64(b.CPUNS-a.CPUNS)/float64(b.AtNS-a.AtNS))
	}
	return rates
}

// reportTrace adds per-layer self times and the tracing overhead, and
// writes the span file.
func (rc *runCtx) reportTrace(logs []*spanLog) error {
	if !rc.traced {
		return nil
	}
	spans := mergeSpans(logs)
	for _, lt := range selfTimes(spans) {
		rc.rep.add(true, metric{Name: "self." + lt.Name + "_us", Unit: "us",
			Value: lt.Self.Seconds() * 1e6 / float64(lt.Count), N: lt.Count,
			Note: fmt.Sprintf("mean self time; total %.3f s of %.3f s", lt.Self.Seconds(), lt.Total.Seconds())})
	}
	cost := spanCost()
	rc.rep.count(true, "trace.spans", int64(len(spans)))
	rc.rep.value(true, "trace.ns_per_span", "ns", float64(cost.Nanoseconds()), "recording cost, measured after the run")
	rc.rep.value(true, "trace.overhead_cpu_cores", "cores", float64(len(spans))*cost.Seconds()/rc.window.Seconds(),
		"spans x recording cost / window")
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", rc.workload, rc.seed))
	if err := writeSpans(path, spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}
