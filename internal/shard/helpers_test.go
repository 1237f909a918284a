package shard

import "dyncomp/internal/serve"

// terminalWire reports whether a wire state string is final.
func terminalWire(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

func (c *Coordinator) get(id string) (*job, bool) { return c.jobs.Get(id) }

func (j *job) snapshot() serve.Job { return j.Snapshot() }
