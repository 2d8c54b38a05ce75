package runtime

import "parsec/internal/ptg"

// queued empties the executor's shards and returns what they held, shard
// by shard in pop order: what a stopped run left behind. Call it only
// after Run has returned.
func (x *Executor) queued() []*ptg.Instance {
	var q []*ptg.Instance
	for si := range x.shards {
		for in := x.popShard(si); in != nil; in = x.popShard(si) {
			q = append(q, in)
		}
	}
	return q
}
