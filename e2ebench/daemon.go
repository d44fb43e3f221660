package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ses"
)

// proc is one daemon the benchmark started.
type proc struct {
	name    string
	url     string
	dataDir string
	cmd     *exec.Cmd
	logFile *os.File
	exited  chan struct{}
}

func startProc(bin, name string, args []string, logPath string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// A benchmark killed outright must not leave daemons behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, logFile: lf, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// stop sends SIGTERM, escalates to SIGKILL after a second (a run
// discards the daemons' state, so their graceful drain buys nothing),
// and returns once the process has exited.
func (p *proc) stop() {
	select {
	case <-p.exited:
	default:
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.exited:
		case <-time.After(time.Second):
			p.cmd.Process.Kill()
			<-p.exited
		}
	}
	p.logFile.Close()
}

func (p *proc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// logTail returns the end of the daemon's log for error messages.
func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.logFile.Name())
	if len(b) > 800 {
		b = b[len(b)-800:]
	}
	return strings.TrimSpace(string(b))
}

// clkTck is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clkTck = 100

// cpu returns the process's user+sys CPU time so far.
func (p *proc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 || i+2 > len(s) {
		return 0, fmt.Errorf("parsing /proc/%d/stat", p.cmd.Process.Pid)
	}
	f := strings.Fields(s[i+2:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %d fields", p.cmd.Process.Pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat times", p.cmd.Process.Pid)
	}
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// peakRSS returns the process's peak resident set (VmHWM) in bytes.
func (p *proc) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// deployment is the set of daemons one workload runs against.
type deployment struct {
	nodes  []*proc // sesd processes
	router *proc   // nil unless clustered
	// front is where clients send every request: the router, or the
	// single sesd.
	front string
	// ids and peers are the cluster membership, and ring places each
	// session on its primary as the nodes do (nil unless clustered).
	ids   []string
	peers map[string]string
	ring  *ses.ClusterRing
}

func (d *deployment) procs() []*proc {
	ps := append([]*proc(nil), d.nodes...)
	if d.router != nil {
		ps = append(ps, d.router)
	}
	return ps
}

// primary is the base URL of the node that owns session name.
func (d *deployment) primary(name string) string {
	if d.ring == nil {
		return d.nodes[0].url
	}
	return d.peers[d.ring.Primary(name)]
}

// stop stops every daemon at once and waits for each to exit.
func (d *deployment) stop() {
	var wg sync.WaitGroup
	for _, p := range d.procs() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.stop()
		}()
	}
	wg.Wait()
}

// cpu sums user+sys CPU over every server process.
func (d *deployment) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, p := range d.procs() {
		c, err := p.cpu()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// peakRSS sums VmHWM over every server process.
func (d *deployment) peakRSS() (int64, error) {
	var sum int64
	for _, p := range d.procs() {
		r, err := p.peakRSS()
		if err != nil {
			return 0, err
		}
		sum += r
	}
	return sum, nil
}

// dataBytes sums the sizes of every file under the nodes' data
// directories.
func (d *deployment) dataBytes() int64 {
	var sum int64
	for _, n := range d.nodes {
		if n.dataDir == "" {
			continue
		}
		filepath.WalkDir(n.dataDir, func(_ string, e fs.DirEntry, err error) error {
			if err == nil && !e.IsDir() {
				if info, ierr := e.Info(); ierr == nil {
					sum += info.Size()
				}
			}
			return nil
		})
	}
	return sum
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]int, error) {
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	ports := make([]int, 0, n)
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

// sesdArgs is a sesd command line: the daemon's defaults (observability
// on, as deployed) plus the flags the workload names.
func sesdArgs(sp spec, addr, dataDir, id, peers string) []string {
	args := []string{"-addr", addr}
	if sp.durable {
		args = append(args, "-data-dir", dataDir, "-group-commit")
	}
	if sp.cluster {
		args = append(args, "-node-id", id, "-peers", peers, "-replicate-ack", "1")
	}
	return args
}

func routerArgs(addr, peers string) []string { return []string{"-addr", addr, "-peers", peers} }

// deploy starts the workload's daemons under dir and waits until they
// serve: every sesd answers /v1/readyz, every cluster node has a
// connected replication stream from each peer, and the router
// answers its status page.
func deploy(ctx context.Context, e *env, sp spec, dir string) (*deployment, error) {
	// A directory left by an interrupted run would be recovered as
	// state; every round starts empty.
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	nNodes := 1
	if sp.cluster {
		nNodes = 3
	}
	ports, err := freePorts(nNodes + 1)
	if err != nil {
		return nil, err
	}
	addr := func(i int) string { return fmt.Sprintf("127.0.0.1:%d", ports[i]) }
	dep := &deployment{}
	var peerSpec string
	if sp.cluster {
		dep.peers = map[string]string{}
		var members []string
		for i := 0; i < nNodes; i++ {
			id := fmt.Sprintf("n%d", i+1)
			dep.ids = append(dep.ids, id)
			dep.peers[id] = "http://" + addr(i)
			members = append(members, id+"="+dep.peers[id])
		}
		peerSpec = strings.Join(members, ",")
		if dep.ring, err = ses.NewClusterRing(dep.ids, 0); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nNodes; i++ {
		name, id, ddir := "sesd", "", ""
		if sp.cluster {
			id = dep.ids[i]
			name += "-" + id
		}
		if sp.durable {
			ddir = filepath.Join(dir, name+"-data")
		}
		p, err := startProc(e.sesd, name, sesdArgs(sp, addr(i), ddir, id, peerSpec), filepath.Join(dir, name+".log"))
		if err != nil {
			dep.stop()
			return nil, err
		}
		p.url, p.dataDir = "http://"+addr(i), ddir
		dep.nodes = append(dep.nodes, p)
	}
	dep.front = dep.nodes[0].url
	if sp.cluster {
		r, err := startProc(e.sesrouter, "sesrouter", routerArgs(addr(nNodes), peerSpec), filepath.Join(dir, "sesrouter.log"))
		if err != nil {
			dep.stop()
			return nil, err
		}
		r.url = "http://" + addr(nNodes)
		dep.router, dep.front = r, r.url
	}
	if err := dep.waitReady(ctx); err != nil {
		dep.stop()
		return nil, err
	}
	return dep, nil
}

// waitReady polls every millisecond, so the poll interval does not
// round setup_s.
func (d *deployment) waitReady(ctx context.Context) error {
	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	poll := func(p *proc, path string, ok func([]byte) bool) error {
		for {
			if !p.alive() {
				return fmt.Errorf("%s exited during start-up: %s", p.name, p.logTail())
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready after 60s: %s", p.name, p.logTail())
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			resp, err := hc.Get(p.url + path)
			if err == nil {
				var body []byte
				body, err = readAll(resp)
				if err == nil && resp.StatusCode == http.StatusOK && ok(body) {
					return nil
				}
			}
			time.Sleep(time.Millisecond)
		}
	}
	any := func([]byte) bool { return true }
	for _, n := range d.nodes {
		if err := poll(n, "/v1/readyz", any); err != nil {
			return err
		}
	}
	if d.router == nil {
		return nil
	}
	connected := func(body []byte) bool {
		var st struct {
			Follows map[string]struct {
				Connected bool `json:"connected"`
			} `json:"follows"`
		}
		if json.Unmarshal(body, &st) != nil || len(st.Follows) != len(d.nodes)-1 {
			return false
		}
		for _, f := range st.Follows {
			if !f.Connected {
				return false
			}
		}
		return true
	}
	for _, n := range d.nodes {
		if err := poll(n, "/v1/replication/status", connected); err != nil {
			return err
		}
	}
	return poll(d.router, "/v1/router/status", any)
}
