package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running xmlprojd. Its stderr (one JSON log line per
// request) is drained by a goroutine that ends when the process exits.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	readyMS float64       // spawn -> "listening" log line
	drained chan struct{} // closed once stderr reached EOF
	client  *http.Client
}

// startDaemon spawns a fresh xmlprojd on an ephemeral loopback port with
// the low and mid projections precompiled, and waits for the log line
// that carries its address.
func startDaemon(e *env, clients int) (*daemon, error) {
	cmd := exec.Command(e.tool("xmlprojd"),
		"-schema", "auction="+e.dtd(),
		"-projection", "low=auction:"+projLow.Query,
		"-projection", "mid=auction:"+projMid.Query,
		"-listen", "127.0.0.1:0", "-admin", "")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1) // one send: the address, or "" when stderr ends first
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			if sent {
				continue
			}
			var line struct{ Msg, Addr string }
			if json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "listening" {
				addrc <- line.Addr
				sent = true
			}
		}
		if !sent {
			addrc <- ""
		}
	}()
	select {
	case d.addr = <-addrc:
	case <-time.After(30 * time.Second):
	}
	if d.addr == "" {
		d.stop()
		return nil, fmt.Errorf("xmlprojd did not report a listening address")
	}
	d.readyMS = float64(time.Since(start)) / 1e6
	d.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients, DisableCompression: true,
	}}
	return d, nil
}

// stop terminates the daemon and waits until it has exited.
func (d *daemon) stop() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited: Wait below reports it
	killer := time.AfterFunc(10*time.Second, func() { _ = d.cmd.Process.Kill() })
	<-d.drained
	_ = d.cmd.Wait() // exit status of a stopped daemon carries nothing
	killer.Stop()
}

// peakRSSMB reads the daemon's high-water resident set from /proc.
func (d *daemon) peakRSSMB() float64 { return d.statusMB("VmHWM:") }

// rssMB reads the daemon's current resident set from /proc.
func (d *daemon) rssMB() float64 { return d.statusMB("VmRSS:") }

func (d *daemon) statusMB(field string) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// counters reads the server section of GET /debug/vars.
func (d *daemon) counters() (map[string]float64, error) {
	resp, err := d.client.Get("http://" + d.addr + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var vars struct {
		Server map[string]any `json:"server"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for k, v := range vars.Server {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// request is one POST /prune: which projection, which body, and how the
// reply must look.
type request struct {
	proj    string
	doc     []byte // nil for a body-free revalidation
	suffix  string // appended after the root element; makes a body unique
	chunked bool   // unsized upload: Transfer-Encoding: chunked
	etag    string // with docDigest: If-None-Match revalidation
	digest  string
	status  int    // expected status
	xcache  string // expected X-Cache
}

// reply is what came back from one request.
type reply struct {
	ms           float64 // request write -> last response byte
	out          outputID
	etag, digest string
}

// unsized hides a reader's length from net/http, forcing a chunked
// upload.
type unsized struct{ io.Reader }

// do sends one request and reads the whole reply. Any deviation from
// the expected status, cache verdict or a non-empty error trailer is an
// error: the op failed.
func (d *daemon) do(r request) (reply, error) {
	var body io.Reader
	size := int64(len(r.doc) + len(r.suffix))
	if r.doc != nil {
		body = io.MultiReader(bytes.NewReader(r.doc), strings.NewReader(r.suffix))
		if r.chunked {
			body = unsized{body}
		}
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+d.addr+"/prune?projection="+r.proj, body)
	if err != nil {
		return reply{}, err
	}
	switch {
	case r.doc == nil:
		req.Header.Set("If-None-Match", r.etag)
		req.Header.Set("X-Doc-Digest", r.digest)
	case r.chunked:
		req.ContentLength = -1
	default:
		req.ContentLength = size
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	dg := newDigest()
	_, err = io.Copy(dg, resp.Body)
	resp.Body.Close()
	rep := reply{
		ms: float64(time.Since(start)) / 1e6, out: dg.sum(),
		etag: resp.Header.Get("ETag"), digest: resp.Header.Get("X-Doc-Digest"),
	}
	switch {
	case err != nil:
		return rep, err
	case resp.StatusCode != r.status:
		return rep, fmt.Errorf("status %d, want %d", resp.StatusCode, r.status)
	case resp.Trailer.Get("X-Xmlprojd-Error") != "":
		return rep, fmt.Errorf("error trailer: %s", resp.Trailer.Get("X-Xmlprojd-Error"))
	case resp.Header.Get("X-Cache") != r.xcache:
		return rep, fmt.Errorf("X-Cache %q, want %q", resp.Header.Get("X-Cache"), r.xcache)
	}
	return rep, nil
}
