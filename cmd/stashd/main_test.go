package main

import (
	"bufio"
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestServeAndShutdown runs the full lifecycle: boot on an ephemeral
// port, answer a health probe and a profile, then cancel the signal
// context and verify the drain path exits cleanly.
func TestServeAndShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-iters", "4"}, pw)
		pw.Close()
	}()

	lines := bufio.NewReader(pr)
	first, err := lines.ReadString('\n')
	if err != nil {
		t.Fatalf("read banner: %v", err)
	}
	addr := strings.TrimSpace(strings.TrimPrefix(first, "stashd: listening on "))
	if addr == first {
		t.Fatalf("unexpected banner %q", first)
	}
	// Keep draining the pipe so the shutdown banners never block run.
	go io.Copy(io.Discard, lines)

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz = %d %s", resp.StatusCode, body)
	}

	resp, err = http.Post("http://"+addr+"/v1/profile", "application/json",
		strings.NewReader(`{"model":"resnet18","instance":"p3.2xlarge"}`))
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile = %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after cancellation")
	}
}

func TestRunFlagError(t *testing.T) {
	if err := run(context.Background(), []string{"-badflag"}, io.Discard); err == nil {
		t.Fatal("bad flag should fail")
	}
}

func TestRunListenError(t *testing.T) {
	if err := run(context.Background(), []string{"-addr", "127.0.0.1:notaport"}, io.Discard); err == nil {
		t.Fatal("bad address should fail")
	}
}

// TestOperationsFlagsTable pins docs/OPERATIONS.md's flags table to the
// flags run declares: every flag has a row, every row names a flag, and
// every default the table states literally equals the flag's default.
// GOMAXPROCS is the one symbolic default.
func TestOperationsFlagsTable(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := newFlagSet(new(config))
	rows := map[string]string{}
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 5 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`-") {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`-")
		def := strings.Trim(strings.TrimSpace(cells[2]), "`")
		rows[name] = def
		f := fs.Lookup(name)
		if f == nil {
			t.Errorf("OPERATIONS.md documents -%s, which stashd does not declare", name)
			continue
		}
		got := def
		if def == "GOMAXPROCS" {
			got = strconv.Itoa(runtime.GOMAXPROCS(0))
		} else if _, isDur := f.Value.(flag.Getter).Get().(time.Duration); isDur {
			if d, err := time.ParseDuration(def); err == nil {
				got = d.String() // the table writes 60s for the flag's 1m0s
			}
		}
		if got != f.DefValue {
			t.Errorf("OPERATIONS.md says -%s defaults to %q; the flag's default is %q", name, def, f.DefValue)
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		if _, ok := rows[f.Name]; !ok {
			t.Errorf("-%s has no row in OPERATIONS.md's flags table", f.Name)
		}
	})
}
