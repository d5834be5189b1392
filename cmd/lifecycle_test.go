package cmd_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// daemon is one binary running under the test, its stderr captured.
type daemon struct {
	name string
	cmd  *exec.Cmd
	mu   sync.Mutex
	log  bytes.Buffer
	done chan error
	// exited is set once done has delivered the process's exit.
	exited bool
}

func (d *daemon) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Write(p)
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{name: bin, cmd: exec.Command(built(t, bin), args...), done: make(chan error, 1)}
	d.cmd.Stdout, d.cmd.Stderr = d, d
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	t.Cleanup(func() {
		if !d.exited {
			_ = d.cmd.Process.Kill()
			<-d.done
		}
		if t.Failed() {
			t.Logf("%s log:\n%s", d.name, d.logText())
		}
	})
	return d
}

// stop sends SIGTERM and wants a clean exit whose log matches final.
func (d *daemon) stop(t *testing.T, final *regexp.Regexp) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.done:
		d.exited = true
		if err != nil {
			t.Errorf("%s exited with %v after SIGTERM", d.name, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s still running 30 s after SIGTERM", d.name)
	}
	if !final.MatchString(d.logText()) {
		t.Errorf("%s log has no line matching %q", d.name, final)
	}
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// eventually polls f every 20 ms until it returns "" or the timeout
// passes, then fails with f's last complaint.
func eventually(t *testing.T, timeout time.Duration, f func() string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		msg := f()
		if msg == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// infer posts one payload-free request and reports anything but a 200.
func infer(base string) string {
	resp, err := http.Post(base+"/v2/models/ViT_Tiny/infer", "application/json", strings.NewReader(`{"items":1}`))
	if err != nil {
		return err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return base + ": infer: " + resp.Status
	}
	return ""
}

// leases lists the lease URLs GET /v2/fleet/status reports.
func leases(fleetURL string) ([]string, error) {
	resp, err := http.Get(fleetURL + "/v2/fleet/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st struct {
		Leases []struct {
			URL string `json:"url"`
		} `json:"leases"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	var urls []string
	for _, l := range st.Leases {
		urls = append(urls, l.URL)
	}
	return urls, nil
}

// leaseCount reports anything but want leases at fleetURL.
func leaseCount(fleetURL string, want int) string {
	got, err := leases(fleetURL)
	if err != nil {
		return err.Error()
	}
	if len(got) != want {
		return fmt.Sprintf("fleet leases = %v, want %d", got, want)
	}
	return ""
}

// TestDaemonLifecycle runs the three serving daemons as processes on
// loopback: a simulation-only replica registered with a control plane
// and fronted by a router. One request goes through the router and
// one through the control plane's data plane; then each daemon gets
// SIGTERM and must exit 0 with its final log line, the replica's lease
// retired first.
func TestDaemonLifecycle(t *testing.T) {
	fleetAddr, serveAddr, routerAddr := freeAddr(t), freeAddr(t), freeAddr(t)
	fleetURL, replicaURL, routerURL := "http://"+fleetAddr, "http://"+serveAddr, "http://"+routerAddr

	fleet := startDaemon(t, "harvest-fleet", "-addr", fleetAddr, "-model", "ViT_Tiny")
	replica := startDaemon(t, "harvest-serve", "-addr", serveAddr, "-models", "ViT_Tiny",
		"-timescale", "0", "-fleet", fleetURL)
	router := startDaemon(t, "harvest-router", "-addr", routerAddr, "-replicas", replicaURL)

	eventually(t, 20*time.Second, func() string { return infer(routerURL) })
	eventually(t, 20*time.Second, func() string { return infer(fleetURL) })
	if got, err := leases(fleetURL); err != nil || len(got) != 1 || got[0] != replicaURL {
		t.Fatalf("fleet leases = %v (%v), want [%s]", got, err, replicaURL)
	}

	replica.stop(t, regexp.MustCompile(`(?m)^harvest-serve: ViT_Tiny: requests=[1-9]\d* `))
	// A drain-aware deregistration retires the lease once the
	// replica's in-flight count reads zero, just after it answers; the
	// bound is under the 3 s default TTL, so expiry cannot pass for it.
	eventually(t, time.Second, func() string { return leaseCount(fleetURL, 0) })
	router.stop(t, regexp.MustCompile(`(?m)^harvest-router: router: requests=[1-9]\d* `))
	fleet.stop(t, regexp.MustCompile(`(?m)^harvest-fleet: shutting down$`))
}

// TestLocalFleetRetiresReplicas stops a harvest-fleet -local with
// SIGTERM: each in-process replica must deregister (drain-aware) with
// the control plane before its listener closes.
func TestLocalFleetRetiresReplicas(t *testing.T) {
	addr := freeAddr(t)
	fleet := startDaemon(t, "harvest-fleet", "-addr", addr, "-local", "-min", "2", "-max", "2",
		"-model", "ViT_Tiny", "-timescale", "0")
	eventually(t, 20*time.Second, func() string { return leaseCount("http://"+addr, 2) })
	fleet.stop(t, regexp.MustCompile(`(?m)^harvest-fleet: shutting down$`))
	log := fleet.logText()
	if n := strings.Count(log, "deregistered (draining)"); n != 2 || strings.Contains(log, "deregister:") {
		t.Errorf("%d of 2 local replicas deregistered cleanly:\n%s", n, log)
	}
}
