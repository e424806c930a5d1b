package cluster

import (
	"container/list"
	"sync"
)

// ResultCache is a bounded LRU keyed by content-addressed job key. The
// coordinator stores finished job records in it; the standalone daemon
// stores each finished run's encoded report (json.RawMessage). Values are
// opaque to the cache — holding them as any keeps internal/server →
// internal/cluster a one-way import.
//
// A zero-capacity cache is valid and never stores anything, which is how
// dedup stays opt-in: callers that never enable it share one code path
// with callers that do.
type ResultCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element
}

type cacheEntry struct {
	key string
	val any
}

// NewResultCache returns a cache holding at most capacity entries;
// capacity <= 0 disables storage entirely.
func NewResultCache(capacity int) *ResultCache {
	return &ResultCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get returns the cached value for key and refreshes its recency.
func (c *ResultCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores (or refreshes) key → val, evicting the least recently used
// entry when the cache is at capacity.
func (c *ResultCache) Put(key string, val any) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
}

// Len returns the number of cached entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
