package main

import (
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/server"
)

// TestRunFlagErrors: misconfiguration fails fast with a clear message.
func TestRunFlagErrors(t *testing.T) {
	cases := map[string][]string{
		"neither backends nor local": {},
		"both backends and local":    {"-backends", "http://x", "-local", "2"},
		"unknown placement":          {"-local", "1", "-placement", "hash"}, // not a flag
		"unknown batch":              {"-local", "1", "-batch", "16"},       // a constant
		"unknown batch interval":     {"-local", "1", "-batch-interval", "5ms"},
		"unknown policy":             {"-local", "1", "-policy", "wfq"},
		"unknown snapshot interval":  {"-local", "1", "-snapshot-interval", "1s"}, // the gateway keeps no state
		"state dir with backends":    {"-backends", "http://x", "-state-dir", "/nonexistent"},
		"unknown flag":               {"-bogus"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			if err := run(context.Background(), args, io.Discard); err == nil {
				t.Errorf("run(%v) succeeded, want error", args)
			}
		})
	}
}

// TestRunLocalEndToEnd boots a 2-shard local gateway on a real listener,
// admits a coflow through it, and shuts down via context cancellation — the
// whole daemon lifecycle in one smoke test.
func TestRunLocalEndToEnd(t *testing.T) {
	// Grab a free port, then hand it to the daemon.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", addr, "-local", "2", "-timescale", "100"}, io.Discard)
	}()

	c := server.NewClient("http://" + addr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.Health(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gateway never became healthy")
		}
		time.Sleep(20 * time.Millisecond)
	}

	net0, err := c.Network()
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	if len(net0.Hosts) < 2 {
		t.Fatalf("gateway network has %d hosts", len(net0.Hosts))
	}
	resp, err := c.Admit(coflow.Coflow{
		Name:   "e2e",
		Weight: 1,
		Flows: []coflow.Flow{{
			Source: graph.NodeID(net0.Hosts[0]),
			Dest:   graph.NodeID(net0.Hosts[1]),
			Size:   1,
		}},
	})
	if err != nil {
		t.Fatalf("admit through gateway: %v", err)
	}
	if resp.ID != 0 {
		t.Errorf("gateway id = %d, want 0", resp.ID)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil && !strings.Contains(err.Error(), "closed") {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}
