package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"
)

// closeTimeout bounds the launcher's shutdown once its stdin closes.
const closeTimeout = 30 * time.Second

// ctl is the generator's handle on the launcher child process. Calls are
// serialized: one request is in flight at a time.
type ctl struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Scanner
	mu   sync.Mutex
	done chan error
}

// startLauncher runs this binary again in the launcher role for workload.
func startLauncher(workload string) (*ctl, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating benchmark binary: %w", err)
	}
	cmd := exec.Command(exe, "-role", "service", "-workload", workload)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting launcher: %w", err)
	}
	c := &ctl{cmd: cmd, in: in, out: bufio.NewScanner(out), done: make(chan error, 1)}
	c.out.Buffer(make([]byte, 64<<10), 64<<20)
	return c, nil
}

// call sends one request and decodes the response's data into out (which
// may be nil). It returns the time the launcher spent in the service call.
func (c *ctl) call(req ctlRequest, out any) (time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	line, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	if _, err := c.in.Write(append(line, '\n')); err != nil {
		return 0, fmt.Errorf("launcher %s: %w", req.Op, err)
	}
	if !c.out.Scan() {
		err := c.out.Err()
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return 0, fmt.Errorf("launcher %s: %w", req.Op, err)
	}
	var resp ctlResponse
	if err := json.Unmarshal(c.out.Bytes(), &resp); err != nil {
		return 0, fmt.Errorf("launcher %s: decoding response: %w", req.Op, err)
	}
	ns := time.Duration(resp.NS)
	if resp.Err != "" {
		return ns, fmt.Errorf("launcher %s: %s", req.Op, resp.Err)
	}
	if out != nil && resp.Data != nil {
		if err := json.Unmarshal(resp.Data, out); err != nil {
			return ns, fmt.Errorf("launcher %s: decoding data: %w", req.Op, err)
		}
	}
	return ns, nil
}

// close ends the launcher: closing its stdin makes it shut the service
// down and exit. A launcher that does not exit within closeTimeout is
// killed. It waits until the process has ended either way.
func (c *ctl) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cmd == nil {
		return nil
	}
	c.in.Close()
	go func() { c.done <- c.cmd.Wait() }()
	var err error
	select {
	case err = <-c.done:
	case <-time.After(closeTimeout):
		c.cmd.Process.Kill()
		<-c.done
		err = errors.New("launcher did not exit; killed")
	}
	c.cmd = nil
	return err
}
