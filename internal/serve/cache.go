package serve

import (
	"container/list"
	"hash/fnv"
	"sync"
)

// Entry is one cached, fully rendered report. Both encodings are produced
// once, when the report is generated; every later hit serves the stored
// bytes verbatim, which is what makes repeated identical requests
// byte-identical by construction.
type Entry struct {
	// Key is the canonical experiments cache key the entry is stored under.
	Key string
	// Text is the Render() output served to text clients.
	Text []byte
	// JSON is the canonical JSON encoding served to ?format=json clients.
	JSON []byte
}

// numShards spreads cache keys over independently locked shards so
// concurrent hits on different experiments never contend on one mutex.
const numShards = 16

type shard struct {
	mu    sync.Mutex
	max   int // per-shard entry bound; shard bounds sum exactly to maxEntries
	items map[string]*list.Element
	order *list.List // front = most recently used
}

type lruItem struct {
	key   string
	entry *Entry
}

// Cache is a sharded, bounded LRU over report entries. The bound is
// enforced per shard, and the per-shard bounds sum to exactly maxEntries,
// so Len() can never exceed the configured bound regardless of traffic
// pattern.
type Cache struct {
	shards [numShards]shard
}

// NewCache returns a cache bounded to at most maxEntries reports.
// Values below numShards are raised so every shard can hold at least one
// entry. Above that, the bound is split exactly: maxEntries/numShards per
// shard, with the remainder distributed one entry each to the first
// maxEntries%numShards shards (a rounded-up uniform split would let e.g.
// NewCache(17) hold 32 entries).
func NewCache(maxEntries int) *Cache {
	if maxEntries < numShards {
		maxEntries = numShards
	}
	c := &Cache{}
	base, extra := maxEntries/numShards, maxEntries%numShards
	for i := range c.shards {
		c.shards[i].max = base
		if i < extra {
			c.shards[i].max++
		}
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].order = list.New()
	}
	return c
}

func (c *Cache) shardFor(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key)) //lint:allow errpath hash/fnv's Write is documented to never return an error
	return &c.shards[h.Sum32()%numShards]
}

// Get returns the entry for key, marking it most recently used.
func (c *Cache) Get(key string) (*Entry, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*lruItem).entry, true
}

// Put stores the entry, evicting the shard's least recently used entry if
// the shard is at its bound. Storing an existing key refreshes its entry
// and recency.
func (c *Cache) Put(e *Entry) {
	s := c.shardFor(e.Key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[e.Key]; ok {
		el.Value.(*lruItem).entry = e
		s.order.MoveToFront(el)
		return
	}
	if s.order.Len() >= s.max {
		oldest := s.order.Back()
		if oldest != nil {
			s.order.Remove(oldest)
			delete(s.items, oldest.Value.(*lruItem).key)
		}
	}
	s.items[e.Key] = s.order.PushFront(&lruItem{key: e.Key, entry: e})
}

// Len returns the number of cached entries across all shards.
func (c *Cache) Len() int {
	var n int
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}
