package main

import (
	"flag"

	"pgb/internal/graph"
)

// flags.go holds the flag shared verbatim by several pgb subcommands,
// so its name, default and help text cannot drift between commands:
//
//	flag       commands                        meaning
//	-snapshot  grid commands, ingest, serve    snapshot store directory
//	                                           (written by `pgb ingest`)
//
// -jobs also appears on the grid commands and serve, but with a
// different default and meaning on each (grid cells vs the job pool),
// so each command registers its own.

// addSnapshotFlag registers -snapshot, the snapshot store directory.
func addSnapshotFlag(fs *flag.FlagSet, def string) *string {
	return fs.String("snapshot", def,
		"snapshot store directory (written by `pgb ingest`); dataset references found there load from their CSR snapshots instead of being regenerated")
}

// openSnapshotStore opens the store named by a -snapshot flag; the
// empty string (flag unset) yields a nil store, meaning "generate
// in-process" everywhere a store is consulted.
func openSnapshotStore(dir string) (*graph.SnapshotStore, error) {
	if dir == "" {
		return nil, nil
	}
	return graph.OpenSnapshotStore(dir)
}
