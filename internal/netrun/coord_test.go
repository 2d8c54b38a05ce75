package netrun

import (
	"net"
	"strings"
	"testing"
	"time"
)

// TestRegisterValidatesRank sends a coordinator raw frames over a
// socket, as any process that reaches its port can: a hello, then
// registers naming a rank outside the run, or one rank twice. The rank
// id must never index the coordinator's tables; the run fails with an
// error instead.
func TestRegisterValidatesRank(t *testing.T) {
	cases := []struct {
		name  string
		ranks int
		regs  []int
		want  string
	}{
		{"past the end", 1, []int{5}, "register of rank 5 in a 1-rank run"},
		{"negative", 1, []int{-1}, "register of rank -1 in a 1-rank run"},
		{"twice", 2, []int{0, 0}, "rank 0 registered twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := Config{Ranks: tc.ranks, Deadline: 5 * time.Second}.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			co, err := startCoordinator(cfg, coordSpec{numInstances: 1})
			if err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", co.addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			frames := sealFrame(helloMsg{From: 0}.encode(), 0)
			for i, r := range tc.regs {
				frames = append(frames, sealFrame(registerMsg{Rank: r, Addr: "127.0.0.1:1"}.encode(), uint64(i+1))...)
			}
			if _, err := conn.Write(frames); err != nil {
				t.Fatal(err)
			}
			if _, err := co.wait(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run ended with %v, want an error saying %q", err, tc.want)
			}
		})
	}
}

// TestCoordinatorProbesClosedRank registers a stand-in rank over a raw
// socket, then closes the rank's connection to the coordinator, which
// owes the rank nothing. The coordinator must probe the rank's listener:
// with the listener gone the rank is noted gone, and the run fails
// naming it, unless Recover is on, which leaves the rank to the death
// timeout; with the listener still there the rank is alive, and nothing
// changes. A listener that takes the probe's connection and then closes
// with it, as a process being killed does, leaves the rank gone.
func TestCoordinatorProbesClosedRank(t *testing.T) {
	for _, tc := range []struct {
		name              string
		recover, listener bool
		dying             bool
		gone              bool
		want              string
	}{
		{"gone", false, false, false, true, "netrun: coordinator: rank 0 "},
		{"gone under Recover", true, false, false, true, "ranks registered before deadline"},
		{"alive", false, true, false, false, "ranks registered before deadline"},
		{"dying", false, true, true, true, "netrun: coordinator: rank 0 "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := Config{Ranks: 2, Recover: tc.recover, Deadline: 500 * time.Millisecond}.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			co, err := startCoordinator(cfg, coordSpec{numInstances: 1})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			conn, err := net.Dial("tcp", co.addr())
			if err != nil {
				t.Fatal(err)
			}
			frames := append(sealFrame(helloMsg{From: 0}.encode(), 0),
				sealFrame(registerMsg{Rank: 0, Addr: ln.Addr().String()}.encode(), 1)...)
			if _, err := conn.Write(frames); err != nil {
				t.Fatal(err)
			}
			for co.nRegistered() == 0 {
				time.Sleep(time.Millisecond)
			}
			if !tc.listener {
				ln.Close()
			}
			if tc.dying {
				go func() {
					if c, err := ln.Accept(); err == nil {
						ln.Close()
						c.Close()
					}
				}()
			}
			conn.Close()
			_, err = co.wait()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run ended with %v, want an error saying %q", err, tc.want)
			}
			co.mu.Lock()
			gone := co.gone[0]
			co.mu.Unlock()
			if gone != tc.gone {
				t.Errorf("rank 0 noted gone: %v, want %v", gone, tc.gone)
			}
		})
	}
}
