package main

import "encoding/json"

// The benchmark runs the service in a child process (the launcher) so that
// the service's CPU time and resident memory are measured apart from the
// load generator's. The two talk over the child's stdin/stdout: one JSON
// request per line, answered by one JSON response per line, in order.

// ctlRequest is one command from the generator to the launcher.
type ctlRequest struct {
	Op  string `json:"op"`
	ID  string `json:"id,omitempty"`
	Arg int    `json:"arg,omitempty"`
}

// ctlResponse answers one ctlRequest. NS is the time the launcher spent
// inside the service call itself, so the generator can split a control
// round trip into transport and service time.
type ctlResponse struct {
	Err  string          `json:"err,omitempty"`
	NS   int64           `json:"ns"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Launcher operations.
const (
	opSetup     = "setup"     // pick, promote and start the workload's broadcasts
	opAccess    = "access"    // Service.AccessVideo(ID)
	opEnd       = "end"       // Service.EndBroadcast(ID)
	opSnapshot  = "snapshot"  // Service.Snapshot(), reduced to snap
	opUsage     = "usage"     // process CPU, peak RSS and Go runtime counters
	opWatch     = "watch"     // start polling BroadcastSegments and Snapshot (traced runs)
	opWatchStop = "watchstop" // stop the poller and return what it saw
	opDrain     = "drain"     // wait up to Arg ms until no pipeline, origin or room is left
)

// bcastInfo describes one broadcast the setup started.
type bcastInfo struct {
	ID      string `json:"id"`
	POP     int    `json:"pop"`      // preferred POP index
	HLSBase string `json:"hls_base"` // from AccessVideo
}

// setupInfo is what the launcher reports once the workload's broadcasts
// are live.
type setupInfo struct {
	APIBase    string      `json:"api_base"`
	Broadcasts []bcastInfo `json:"broadcasts"`
	// POPBases are the viewer-facing base URLs of the CDN POPs, by index.
	POPBases []string `json:"pop_bases"`
	// ProbeID, ProbeAddr and ProbeSeed name the broadcast the RTMP probe
	// plays, the ingest server it lives on, and its media seed.
	ProbeID   string `json:"probe_id,omitempty"`
	ProbeAddr string `json:"probe_addr,omitempty"`
	ProbeSeed int64  `json:"probe_seed,omitempty"`
	// ColdIDs are live, public broadcasts without a pipeline that stay
	// live well past the run; LiveIDs every live broadcast. Both sorted.
	ColdIDs []string `json:"cold_ids,omitempty"`
	LiveIDs []string `json:"live_ids,omitempty"`
	// LingerMS is the CDN unregister linger the service runs with.
	LingerMS int64 `json:"linger_ms"`
}

// snap is the part of service.Snapshot the benchmark reads.
type snap struct {
	LiveHubs          int       `json:"live_hubs"`
	Drops             int64     `json:"drops"`
	Resyncs           int64     `json:"resyncs"`
	Hopeless          int64     `json:"hopeless"`
	OriginBroadcasts  int       `json:"origin_broadcasts"`
	OriginPlaylistReq int64     `json:"origin_playlist_req"`
	OriginSegmentReq  int64     `json:"origin_segment_req"`
	Rooms             int       `json:"rooms"`
	ChatMessagesOut   int64     `json:"chat_messages_out"`
	ChatDrops         int64     `json:"chat_drops"`
	POPs              []popSnap `json:"pops"`
}

// popSnap is one POP's counters.
type popSnap struct {
	Fills            int64 `json:"fills"`
	FillErrors       int64 `json:"fill_errors"`
	FillRetries      int64 `json:"fill_retries"`
	FillCapWaits     int64 `json:"fill_cap_waits"`
	SingleFlightHits int64 `json:"single_flight_hits"`
	PeerFills        int64 `json:"peer_fills"`
	StaleServes      int64 `json:"stale_serves"`
	Warmups          int64 `json:"warmups"`
	MaxPlaylistAgeNS int64 `json:"max_playlist_age_ns"`
}

// usage is the launcher's own process accounting.
type usage struct {
	CPUNS      int64   `json:"cpu_ns"`      // user+system CPU time
	MaxRSSKB   int64   `json:"maxrss_kb"`   // peak resident set
	GCCPUSec   float64 `json:"gc_cpu_s"`    // /cpu/classes/gc/total
	GoCPUSec   float64 `json:"go_cpu_s"`    // /cpu/classes/total
	AllocBytes uint64  `json:"alloc_bytes"` // /gc/heap/allocs
	// CPUSamples are the process's CPU time every cpuTick since launch.
	CPUSamples []cpuSample `json:"cpu_samples,omitempty"`
}

// cpuSample is the launcher's CPU time (user+system) at AtNS (Unix ns).
type cpuSample struct {
	AtNS  int64 `json:"at_ns"`
	CPUNS int64 `json:"cpu_ns"`
}

// cutEvent is one segment cut seen by the traced-run poller: segment Seq
// of broadcast ID first showed in BroadcastSegments at AtNS (Unix ns).
type cutEvent struct {
	ID   string `json:"id"`
	Seq  int    `json:"seq"`
	AtNS int64  `json:"at_ns"`
}

// watchResult is what the traced-run poller saw.
type watchResult struct {
	Cuts []cutEvent `json:"cuts"`
	// MaxPlaylistAgeNS is the largest edge playlist age any sample saw.
	MaxPlaylistAgeNS int64 `json:"max_playlist_age_ns"`
	Samples          int   `json:"samples"`
	// SegmentsCalls and SegmentsNS time the BroadcastSegments calls.
	SegmentsCalls int   `json:"segments_calls"`
	SegmentsNS    int64 `json:"segments_ns"`
}

// drainResult reports what was left after a drain.
type drainResult struct {
	LiveHubs         int   `json:"live_hubs"`
	OriginBroadcasts int   `json:"origin_broadcasts"`
	Rooms            int   `json:"rooms"`
	WaitedNS         int64 `json:"waited_ns"`
}
