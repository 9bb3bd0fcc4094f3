package hls

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// resolveTo is a Resolve that always hands out the same edge.
func resolveTo(url string) func(context.Context) (string, error) {
	return func(context.Context) (string, error) { return url, nil }
}

// scriptedEdge serves playlists from a script (one per poll; the last
// repeats) and any segNNNNNN.ts as a small body, except for sequences
// whose first GET is scripted to fail.
type scriptedEdge struct {
	playlists []MediaPlaylist
	failOnce  map[int]bool

	mu    sync.Mutex
	polls int
}

func window(first, last int, ended bool) MediaPlaylist {
	p := MediaPlaylist{TargetDuration: 1, MediaSequence: first, Ended: ended}
	for seq := first; seq <= last; seq++ {
		p.Segments = append(p.Segments, Segment{URI: fmt.Sprintf("seg%06d.ts", seq), Duration: 1})
	}
	return p
}

func (e *scriptedEdge) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if strings.HasSuffix(r.URL.Path, "/playlist.m3u8") {
		i := min(e.polls, len(e.playlists)-1)
		e.polls++
		w.Write(e.playlists[i].Marshal())
		return
	}
	var seq int
	if _, err := fmt.Sscanf(r.URL.Path, "/seg%06d.ts", &seq); err != nil {
		http.NotFound(w, r)
		return
	}
	if e.failOnce[seq] {
		delete(e.failOnce, seq)
		http.Error(w, "expired", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintf(w, "segment %d", seq)
}

// runScripted runs a client against edge and returns the delivered
// sequence numbers, in delivery order, and the number of Resolve calls.
func runScripted(t *testing.T, edge *scriptedEdge) ([]int, int) {
	t.Helper()
	srv := httptest.NewServer(edge)
	defer srv.Close()
	var got []int
	var resolves atomic.Int32
	client := NewClient(ClientConfig{
		Resolve: func(ctx context.Context) (string, error) {
			resolves.Add(1)
			return srv.URL, nil
		},
		PollInterval: 5 * time.Millisecond,
		OnSegment:    func(fs FetchedSegment) { got = append(got, fs.Sequence) },
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := client.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Err() != nil {
		t.Fatal("client did not stop at ENDLIST")
	}
	return got, int(resolves.Load())
}

func equalSeqs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClientJoin pins the one join rule: a live playlist is joined
// LiveEdgeOffset segments behind the newest, a VOD (ENDLIST) playlist at
// its first segment, so a replay viewer gets the whole recording.
func TestClientJoin(t *testing.T) {
	live, _ := runScripted(t, &scriptedEdge{playlists: []MediaPlaylist{window(0, 5, false), window(0, 6, true)}})
	if want := []int{5 - LiveEdgeOffset, 4, 5, 6}; !equalSeqs(live, want) {
		t.Errorf("live join delivered %v, want %v", live, want)
	}
	vod, _ := runScripted(t, &scriptedEdge{playlists: []MediaPlaylist{window(0, 5, true)}})
	if want := []int{0, 1, 2, 3, 4, 5}; !equalSeqs(vod, want) {
		t.Errorf("VOD delivered %v, want %v", vod, want)
	}
}

// TestClientSkipsSegmentsThatLeftWindow is the stuck-delivery regression:
// after a slow round (or a failover onto an edge whose window is ahead)
// the playlist no longer lists the sequence the client waits for. The
// client must skip to the window instead of holding every later segment
// back forever.
func TestClientSkipsSegmentsThatLeftWindow(t *testing.T) {
	got, _ := runScripted(t, &scriptedEdge{playlists: []MediaPlaylist{window(0, 3, false), window(10, 13, true)}})
	if len(got) < 4 || !equalSeqs(got[len(got)-4:], []int{10, 11, 12, 13}) {
		t.Fatalf("delivered %v, want it to end with 10 11 12 13", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("delivered out of order: %v", got)
		}
	}
}

// TestClientRetriesFailedSegment: a failed segment fetch ends the round
// and re-resolves; the sequence stays pending and is fetched again while
// the playlist still lists it, so nothing is lost or reordered.
func TestClientRetriesFailedSegment(t *testing.T) {
	got, resolves := runScripted(t, &scriptedEdge{
		playlists: []MediaPlaylist{window(0, 5, false), window(0, 5, false), window(0, 6, true)},
		failOnce:  map[int]bool{4: true},
	})
	if want := []int{3, 4, 5, 6}; !equalSeqs(got, want) {
		t.Errorf("delivered %v, want %v", got, want)
	}
	if resolves != 2 {
		t.Errorf("Resolve called %d times, want 2 (start + failover)", resolves)
	}
}

// TestClientResolveEnded: ErrEnded from Resolve ends Run cleanly.
func TestClientResolveEnded(t *testing.T) {
	client := NewClient(ClientConfig{Resolve: func(context.Context) (string, error) { return "", ErrEnded }})
	if n, err := client.Run(context.Background()); n != 0 || err != nil {
		t.Fatalf("Run = %d, %v; want 0, nil", n, err)
	}
}
