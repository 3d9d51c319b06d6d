package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one roadpartd process started by the benchmark.
type daemon struct {
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has been reaped
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// startDaemon launches roadpartd on port with extra flags. Its log goes to
// name.log in the work directory.
func startDaemon(o *options, name string, port int, args ...string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(o.workDir, name+".log"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	argv := append([]string{"-addr", addr, "-drain", "2s"}, args...)
	argv = append(argv, o.extraArgs...)
	cmd := exec.Command(o.daemon, argv...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting roadpartd: %w", err)
	}
	d := &daemon{url: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped daemon is not interesting
		close(d.done)
	}()
	return d, nil
}

// readyPoll is the healthz polling interval. A daemon is ready in a few
// milliseconds, so a coarser interval would quantise setup_s.
const readyPoll = 200 * time.Microsecond

// waitReady polls /v1/healthz until the daemon answers 200.
func (d *daemon) waitReady(ctx context.Context, c *http.Client) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	for {
		rep, err := exchange(ctx, c, http.MethodGet, d.url+"/v1/healthz", nil)
		if err == nil && rep.status == http.StatusOK {
			return nil
		}
		select {
		case <-d.done:
			return fmt.Errorf("roadpartd %s exited during start-up (see %s)", d.url, d.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("roadpartd %s not ready: %w", d.url, ctx.Err())
		case <-time.After(readyPoll):
		}
	}
}

// stop sends SIGTERM, waits for the process, and kills it if the drain
// overruns. It returns once the process has been reaped.
func (d *daemon) stop() {
	select {
	case <-d.done:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	}
	d.log.Close()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// stopAll stops every daemon in ds.
func stopAll(ds []*daemon) {
	for _, d := range ds {
		d.stop()
	}
}

// peakRSSSum sums the daemons' VmHWM.
func peakRSSSum(ds []*daemon) (float64, error) {
	var total float64
	for _, d := range ds {
		mb, err := d.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// counters scrapes /v1/metrics and sums every sample of family whose
// labels include all of want.
func counters(ctx context.Context, c *http.Client, ds []*daemon, family string, want ...string) (float64, error) {
	var total float64
	for _, d := range ds {
		rep, err := exchange(ctx, c, http.MethodGet, d.url+"/v1/metrics", nil)
		if err != nil {
			return 0, err
		}
		if rep.status != http.StatusOK {
			return 0, fmt.Errorf("GET /v1/metrics: status %d", rep.status)
		}
		total += sumFamily(rep.body, family, want)
	}
	return total, nil
}

// sumFamily adds up the Prometheus text samples of one family whose label
// set contains every `key="value"` pair in want.
func sumFamily(text []byte, family string, want []string) float64 {
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, family)
		if !ok || (rest != "" && rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		matched := true
		for _, w := range want {
			if !strings.Contains(rest, w) {
				matched = false
				break
			}
		}
		if !matched {
			continue
		}
		fields := strings.Fields(rest)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			total += v
		}
	}
	return total
}

// newClient returns an HTTP client for one loopback connection pool.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// reply is one completed exchange.
type reply struct {
	status int
	header http.Header
	body   []byte
	start  time.Time
	end    time.Time
}

// payload is a request body assembled from shared parts, so many requests
// can carry one large network document without copying it.
type payload [][]byte

func (p payload) reader() (io.Reader, int64) {
	rs := make([]io.Reader, len(p))
	var n int64
	for i, part := range p {
		rs[i] = bytes.NewReader(part)
		n += int64(len(part))
	}
	return io.MultiReader(rs...), n
}

// bytes returns the body as one slice (for the in-process reference).
func (p payload) bytes() []byte { return bytes.Join(p, nil) }

// exchange performs one request and reads the whole response.
func exchange(ctx context.Context, c *http.Client, method, url string, body payload) (*reply, error) {
	var rd io.Reader = http.NoBody
	var n int64
	if body != nil {
		rd, n = body.reader()
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	req.ContentLength = n
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading %s %s: %w", method, url, err)
	}
	return &reply{status: resp.StatusCode, header: resp.Header, body: b, start: start, end: time.Now()}, nil
}

// statusErr describes a non-200 reply.
func statusErr(rep *reply) error {
	return fmt.Errorf("status %d: %.200s", rep.status, bytes.TrimSpace(rep.body))
}
