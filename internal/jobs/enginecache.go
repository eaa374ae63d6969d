package jobs

import (
	"context"

	"stopwatchsim/internal/model"
)

// engineCache is a per-worker LRU of prepared engines (model.Prepared),
// keyed by configuration fingerprint. Workers own their cache
// exclusively — no locking — and hand it to runners through the run
// context; ConfigRun checks out an engine, Reset+Runs it, and returns it
// on success. Checkout semantics (get removes, put re-inserts) mean a
// run that fails or panics simply never returns the engine: whatever
// state the runtime was left in is dropped with it, and the next run of
// that configuration rebuilds from scratch.
type engineCache struct {
	cap    int
	keys   []string // LRU order, most recently used last
	m      map[string]*model.Prepared
	onHit  func()
	reuses int64
}

// defaultEngineCache is the per-worker capacity when Options.EngineCache
// is zero. Small on purpose: each entry holds a full compiled network.
const defaultEngineCache = 4

func newEngineCache(capacity int, onHit func()) *engineCache {
	if capacity <= 0 {
		return nil
	}
	return &engineCache{cap: capacity, m: make(map[string]*model.Prepared, capacity), onHit: onHit}
}

// get checks an engine out of the cache, removing it; nil on miss.
func (c *engineCache) get(key string) *model.Prepared {
	p := c.m[key]
	if p == nil {
		return nil
	}
	delete(c.m, key)
	for i, k := range c.keys {
		if k == key {
			c.keys = append(c.keys[:i], c.keys[i+1:]...)
			break
		}
	}
	c.reuses++
	if c.onHit != nil {
		c.onHit()
	}
	return p
}

// put returns an engine to the cache, evicting the least recently used
// entry past capacity. Re-putting a key replaces the stored engine.
func (c *engineCache) put(key string, p *model.Prepared) {
	if _, ok := c.m[key]; ok {
		c.m[key] = p
		return
	}
	c.m[key] = p
	c.keys = append(c.keys, key)
	if len(c.keys) > c.cap {
		evict := c.keys[0]
		c.keys = c.keys[1:]
		delete(c.m, evict)
	}
}

type engineCacheCtxKey struct{}

// withEngineCache attaches a worker's engine cache to a run context.
func withEngineCache(ctx context.Context, c *engineCache) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, engineCacheCtxKey{}, c)
}

// engineCacheFrom retrieves the worker's engine cache, nil outside a
// pool worker (direct Runner.Run calls keep the one-shot path).
func engineCacheFrom(ctx context.Context) *engineCache {
	c, _ := ctx.Value(engineCacheCtxKey{}).(*engineCache)
	return c
}
