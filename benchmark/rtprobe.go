package main

import (
	"fmt"
	"time"

	gs "gossipstream"
)

// probeRT streams over real UDP sockets on the loopback interface: a source
// and one viewer (two sockets, so the load stays within two CPUs), uncapped,
// at ten times the paper's stream rate so that 20 windows take ≈3.5 s. The
// numbers are loopback numbers: no propagation delay, no loss but the
// kernel's. If the sockets cannot be bound the three metrics read 0 and the
// returned note says why.
func probeRT(m metricSet, seed int64, sc scale) (note string, err error) {
	m["rt.packets_per_s"], m["rt.cpu_us_per_packet"], m["rt.complete_pct"] = 0, 0, 0
	layout := gs.DefaultLayout(max(int(20*sc.time), 2))
	layout.RateBps *= 10
	cluster, err := gs.NewLiveCluster(2, gs.DefaultProtocol(), layout, gs.Unlimited, seed)
	if err != nil {
		return fmt.Sprintf("skipped: %v", err), nil
	}
	defer cluster.Stop()
	cpu0, _, err := rusage()
	if err != nil {
		return "", err
	}
	start := time.Now()
	if err := cluster.Start(); err != nil {
		return "", fmt.Errorf("rt probe: %w", err)
	}
	viewer := cluster.Nodes[1]
	deadline := start.Add(layout.Duration() + 2*time.Second)
	for time.Now().Before(deadline) && viewer.Receiver().Delivered() < layout.TotalPackets() {
		time.Sleep(20 * time.Millisecond)
	}
	wall := time.Since(start).Seconds()
	cpu1, _, err := rusage()
	if err != nil {
		return "", err
	}
	cluster.Stop()

	recv := viewer.Receiver()
	packets := float64(recv.Delivered())
	complete := 0
	for w := 0; w < layout.Windows; w++ {
		if _, ok := recv.CompletionTime(w); ok {
			complete++
		}
	}
	m["rt.packets_per_s"] = packets / wall
	m["rt.cpu_us_per_packet"] = ratio((cpu1-cpu0)*1e6, packets)
	m["rt.complete_pct"] = 100 * float64(complete) / float64(layout.Windows)
	return "loopback, 2 sockets", nil
}
