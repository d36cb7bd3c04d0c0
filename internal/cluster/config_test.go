package cluster

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"unizk/internal/serverclient"
)

// TestShippingSettings pins what the shipping flags (-probe 250ms
// -stale 3s) give over three nodes, on the settings and on a built node
// client, so a later change cannot move the shipping behaviour
// silently. The probe cadence sets only itself: the benchmark's
// -probe 50ms leaves every other value where it is.
func TestShippingSettings(t *testing.T) {
	cfg := Config{
		Nodes:         []string{"http://a", "http://b", "http://c"},
		ProbeInterval: 250 * time.Millisecond,
		StaleAfter:    3 * time.Second,
	}
	s := cfg.withDefaults()
	n := newNode(cfg.Nodes[0], s)
	cases := []struct {
		name      string
		got, want any
	}{
		{"poll interval", s.pollInterval, 25 * time.Millisecond},
		{"saturation backoff", s.saturationBackoff, 250 * time.Millisecond},
		{"recover timeout", s.recoverTimeout, 2 * time.Second},
		{"probe timeout", s.probeTimeout, time.Second},
		{"pending cap", s.pendingCap, 3 * 64},
		// One exchange per call: the prober and dispatch's loops are the
		// only failure detector and the only retry.
		{"node client retry", n.client.Retry, (*serverclient.RetryPolicy)(nil)},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	if zero := (Config{Nodes: cfg.Nodes}).withDefaults(); !reflect.DeepEqual(zero, s) {
		t.Errorf("zero-value config gives %+v, want the shipping %+v", zero, s)
	}
	bench := cfg
	bench.ProbeInterval = 50 * time.Millisecond
	b := bench.withDefaults()
	b.ProbeInterval = s.ProbeInterval
	if !reflect.DeepEqual(b, s) {
		t.Errorf("-probe 50ms gives %+v, want the shipping %+v apart from the cadence", b, s)
	}
}

// TestProbeTimeout: the probe timeout is a third of StaleAfter, capped
// at 1s, so a long staleness bound cannot stall a prober on a hung node.
func TestProbeTimeout(t *testing.T) {
	for _, tc := range []struct{ stale, want time.Duration }{
		{400 * time.Millisecond, 400 * time.Millisecond / 3},
		{3 * time.Second, time.Second},
		{time.Hour, time.Second},
	} {
		if got := (Config{StaleAfter: tc.stale}).withDefaults().probeTimeout; got != tc.want {
			t.Errorf("StaleAfter %v: probe timeout %v, want %v", tc.stale, got, tc.want)
		}
	}
}

// TestStaleAfterMustExceedProbe: a probe that times out reports about
// ProbeInterval plus the probe timeout after the last success, so with
// StaleAfter at or below that one transient failure would eject the
// node. New refuses such a config and names both fields.
func TestStaleAfterMustExceedProbe(t *testing.T) {
	for _, stale := range []time.Duration{500 * time.Millisecond, time.Second, 1400 * time.Millisecond} {
		_, err := New(Config{Nodes: []string{"http://127.0.0.1:1"}, ProbeInterval: time.Second, StaleAfter: stale})
		if err == nil || !strings.Contains(err.Error(), "StaleAfter") || !strings.Contains(err.Error(), "ProbeInterval") {
			t.Errorf("StaleAfter %v, ProbeInterval 1s: New = %v, want an error naming both fields", stale, err)
		}
	}
}
