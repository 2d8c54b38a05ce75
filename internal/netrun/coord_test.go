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
