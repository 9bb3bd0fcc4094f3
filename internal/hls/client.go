package hls

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// LiveEdgeOffset is how many segments behind the newest a live viewer
// joins: players hold back from the edge for buffer safety. The HLS
// model (player.SimConfig) and every live viewer join the same way.
const LiveEdgeOffset = 2

// ErrEnded is returned by a Resolve function once the stream is over
// (e.g. access now resolves to a VOD replay); Run then ends cleanly.
var ErrEnded = errors.New("hls: stream ended")

// ClientConfig configures the HLS polling client.
type ClientConfig struct {
	// Resolve returns the directory URL containing playlist.m3u8. Run
	// calls it at start and again after any failed playlist or segment
	// fetch, which is where edge failover happens; ErrEnded ends the
	// session cleanly.
	Resolve func(context.Context) (string, error)
	// PollInterval between playlist refreshes; defaults to half the target
	// duration as typical players do.
	PollInterval time.Duration
	// Parallelism is the number of concurrent segment connections. The
	// paper notes HLS "may sometimes use multiple connections to different
	// servers in parallel"; >1 enables that behaviour.
	Parallelism int
	// HTTPClient may carry a bandwidth-shaped transport.
	HTTPClient *http.Client
	// OnSegment is invoked for every downloaded segment, in sequence order.
	OnSegment func(FetchedSegment)
}

// Client downloads an HLS stream until the context ends or the playlist
// is marked ended. A live stream is joined LiveEdgeOffset segments behind
// the newest, a VOD (ENDLIST) playlist at its first segment. A segment
// whose fetch failed stays pending and is retried while the playlist
// still lists it; once it has left the window it is skipped.
type Client struct {
	cfg  ClientConfig
	http *http.Client

	// fetched holds completed segments not yet delivered; next is the
	// sequence to deliver next (-1 before the join). Only Run touches them.
	fetched map[int]FetchedSegment
	next    int

	mu sync.Mutex
	// Bytes counts total payload bytes downloaded (playlists + segments).
	Bytes int64
	// PlaylistFetches counts playlist polls (each is one HTTP request).
	PlaylistFetches int
}

// NewClient validates cfg and returns a client.
func NewClient(cfg ClientConfig) *Client {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultSegmentTarget / 2
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 1
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{cfg: cfg, http: hc, fetched: map[int]FetchedSegment{}, next: -1}
}

// Run polls the playlist and fetches segments until ctx is cancelled, the
// stream ends, or Resolve fails. It returns the number of segments
// delivered.
func (c *Client) Run(ctx context.Context) (int, error) {
	delivered := 0
	base := ""
	for {
		if base == "" {
			var err error
			if base, err = c.cfg.Resolve(ctx); err != nil {
				if errors.Is(err, ErrEnded) || ctx.Err() != nil {
					return delivered, nil
				}
				return delivered, err
			}
		}
		pl, err := c.fetchPlaylist(ctx, base)
		failed := err != nil
		if !failed && len(pl.Segments) > 0 {
			first := pl.Segments[0].Sequence
			if c.next == -1 {
				c.next = first
				if !pl.Ended {
					c.next = max(first, pl.Segments[len(pl.Segments)-1].Sequence-LiveEdgeOffset)
				}
			}
			failed = c.fetchRound(ctx, base, pl.Segments)
			delivered += c.deliverReady(first)
		}
		if ctx.Err() != nil {
			return delivered, nil
		}
		if failed {
			// Edge dark, segment expired or link drop: end the round and
			// fail over through a fresh Resolve.
			base = ""
		} else if pl.Ended {
			return delivered, nil
		}
		select {
		case <-ctx.Done():
			return delivered, nil
		case <-time.After(c.cfg.PollInterval):
		}
	}
}

// fetchRound fetches every listed segment from next on that is not held
// yet, Parallelism at a time, launching no more after a failure. It
// reports whether a fetch failed.
func (c *Client) fetchRound(ctx context.Context, base string, segs []Segment) bool {
	got := make([]*FetchedSegment, len(segs))
	var failed atomic.Bool
	var wg sync.WaitGroup
	sem := make(chan struct{}, c.cfg.Parallelism)
	for i, seg := range segs {
		if _, have := c.fetched[seg.Sequence]; have || seg.Sequence < c.next {
			continue
		}
		sem <- struct{}{}
		if failed.Load() {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if fs, err := c.fetchSegment(ctx, base, seg); err == nil {
				got[i] = &fs
			} else {
				failed.Store(true)
			}
		}()
	}
	wg.Wait()
	for _, fs := range got {
		if fs != nil {
			c.fetched[fs.Sequence] = *fs
		}
	}
	return failed.Load()
}

// deliverReady hands completed segments to OnSegment in sequence order.
// A missing sequence below first (the playlist's first sequence) has left
// the window and can never arrive, so delivery skips ahead to the next
// completed segment or to first.
func (c *Client) deliverReady(first int) int {
	n := 0
	for {
		if fs, ok := c.fetched[c.next]; ok {
			delete(c.fetched, c.next)
			c.next++
			n++
			if c.cfg.OnSegment != nil {
				c.cfg.OnSegment(fs)
			}
			continue
		}
		if c.next >= first {
			return n
		}
		skip := first
		for seq := range c.fetched {
			if seq > c.next && seq < skip {
				skip = seq
			}
		}
		c.next = skip
	}
}

// get fetches one URL and returns its body, or an error for any non-200.
func (c *Client) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("hls: %s: status %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.Bytes += int64(len(data))
	c.mu.Unlock()
	return data, nil
}

func (c *Client) fetchPlaylist(ctx context.Context, base string) (MediaPlaylist, error) {
	data, err := c.get(ctx, base+"/playlist.m3u8")
	if err != nil {
		return MediaPlaylist{}, err
	}
	c.mu.Lock()
	c.PlaylistFetches++
	c.mu.Unlock()
	return ParseMediaPlaylist(data)
}

func (c *Client) fetchSegment(ctx context.Context, base string, seg Segment) (FetchedSegment, error) {
	start := time.Now()
	data, err := c.get(ctx, base+"/"+seg.URI)
	if err != nil {
		return FetchedSegment{}, err
	}
	return FetchedSegment{
		Sequence:   seg.Sequence,
		Duration:   time.Duration(seg.Duration * float64(time.Second)),
		Data:       data,
		FetchStart: start,
		FetchEnd:   time.Now(),
	}, nil
}
