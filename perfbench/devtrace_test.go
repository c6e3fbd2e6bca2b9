package main

import (
	"sync/atomic"
	"testing"
	"time"

	patree "github.com/patree/patree"
)

// The counting device measures the device layer from outside the
// engine; its command counts must agree with the engine's own.
func TestCountingDeviceMatchesEngineCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts patree.Options
	}{
		{"point-cold", patree.Options{Persistence: patree.Strong}},
		{"two-shards", patree.Options{Shards: 2}},
		{"journal", patree.Options{Persistence: patree.Strong, Journal: true, Shards: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const keys = 3000
			e, err := openEngine(tc.opts, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := preload(e.db, 7, 1, keys); err != nil {
				t.Fatal(err)
			}
			s0, d0 := e.db.Stats(), e.dev.counts()
			vers := make([]atomic.Uint64, keys)
			z := newZipf(keys, theta, 7)
			mixers := []mixer{
				&pointMix{seed: 7, r: newRNG(1), z: z, getPct: 70, vers: vers},
				&pointMix{seed: 7, r: newRNG(2), z: z, getPct: 70, vers: vers},
			}
			loop := runClosedAll(e.db, mixers, closedCfg{depth: 8, start: time.Now(), maxOps: 2000})
			if loop.failed != 0 {
				t.Fatalf("%d failed: %v", loop.failed, loop.errs)
			}
			s1, d1 := e.db.Stats(), e.dev.counts()
			if _, err := e.close(); err != nil {
				t.Fatal(err)
			}

			d := d1.sub(d0)
			if got, want := d.cmds[0], s1.ReadsIssued-s0.ReadsIssued; got != want {
				t.Errorf("device saw %d reads, engine issued %d", got, want)
			}
			if got, want := d.cmds[1], s1.WritesIssued-s0.WritesIssued; got != want {
				t.Errorf("device saw %d writes, engine issued %d", got, want)
			}
			if d.cmds[1] == 0 || d.probes == 0 {
				t.Errorf("counts look empty: %+v", d)
			}
			if tc.opts.Journal && d.walBlocks == 0 {
				t.Error("no writes counted in the journal region")
			}
			// Set-up traffic is counted too: the preload's writes and the
			// superblock read at Open precede the snapshot.
			if d0.cmds[1] < s0.WritesIssued || d0.cmds[0] < s0.ReadsIssued {
				t.Errorf("set-up counts %+v below the engine's %d reads, %d writes", d0.cmds, s0.ReadsIssued, s0.WritesIssued)
			}
		})
	}
}
