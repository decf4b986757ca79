package main

import (
	"fmt"
	"time"
)

// servingPass replays every HTTP workload on a traced stack for d and
// splits its serving time into layers: per-endpoint handler time, the
// client side and network, and the router hop, plus deltas of the
// daemon's and the router's own counters.
func servingPass(seed uint64, d time.Duration, tr *tracer, tl *tally) (metricSet, []span, error) {
	ref, err := references(daemonSeed, refBytes)
	if err != nil {
		return nil, nil, err
	}
	m := metricSet{}
	handler := map[string][]float64{}
	var all []span
	for _, wl := range workloads {
		if wl.lib {
			continue
		}
		sys, err := wl.setup(seed, ref, tr, tl)
		if err != nil {
			return nil, nil, err
		}
		h := sys.(*httpSystem)
		before, err := h.counters()
		if err != nil {
			h.close()
			return nil, nil, err
		}
		start := time.Now()
		tr.on.Store(true)
		w := h.measure(d)
		tr.on.Store(false)
		elapsed := time.Since(start)
		spans := tr.take()
		after, err := h.counters()
		h.verify(tl)
		h.close()
		if err != nil {
			return nil, nil, err
		}
		tl.merge(w.tally)
		all = append(all, spans...)

		byLayer := map[string][]span{}
		for _, s := range spans {
			if s.Endpoint == "other" { // /metrics scrapes and the router's /healthz probes
				continue
			}
			byLayer[s.Layer] = append(byLayer[s.Layer], s)
			if s.Layer == "server" {
				handler[s.Endpoint] = append(handler[s.Endpoint], ms(s.dur()))
			}
		}
		// Every client request reaches the front layer once and is timed
		// there too; what the client waited beyond the front layer's time
		// is its own and the network's.
		front, nodes := byLayer["server"], byLayer["server"]
		if h.st.rt != nil {
			front = byLayer["router"]
			m.set("cluster.hop_ms_mean", "ms", selfMs(front, nodes), len(front))
			m.set("cluster.retries", "count", after["router:bsrngd_cluster_retries_total"]-before["router:bsrngd_cluster_retries_total"], 0)
		}
		m.set("net.transport_ms_mean."+wl.name, "ms", ms(w.opTime)/float64(w.ops)-total(front)/float64(len(front)), w.ops)
		if h.st.rt == nil {
			delta := func(name string) float64 { return after[name] - before[name] }
			m.set("server.checkout_ms_mean", "ms",
				1e3*delta("bsrngd_shard_checkout_seconds_sum")/delta("bsrngd_shard_checkout_seconds_count"), 0)
			m.set("server.recycle_hit_ratio", "ratio",
				delta("bsrngd_engine_recycle_hits_total")/delta("bsrngd_engine_chunks_produced_total"), 0)
			m.set("server.health_segments_per_s", "1/s", delta("bsrngd_health_segments_checked_total")/elapsed.Seconds(), 0)
		}
	}
	for _, ep := range endpoints {
		m.set("server.handler_ms_p50."+ep, "ms", quantile(handler[ep], 0.5), len(handler[ep]))
	}
	return m, all, nil
}

// counters scrapes the /metrics of every daemon (summed) and of the
// router (prefixed "router:").
func (h *httpSystem) counters() (map[string]float64, error) {
	out := map[string]float64{}
	for _, node := range h.st.nodes {
		c, err := scrape(node)
		if err != nil {
			return nil, err
		}
		for k, v := range c {
			out[k] += v
		}
	}
	if h.st.rt != nil {
		c, err := scrape(h.st.front)
		if err != nil {
			return nil, fmt.Errorf("router: %w", err)
		}
		for k, v := range c {
			out["router:"+k] = v
		}
	}
	return out, nil
}

// total is the summed duration of spans, in ms.
func total(spans []span) float64 {
	var t time.Duration
	for _, s := range spans {
		t += s.dur()
	}
	return ms(t)
}

// selfMs is the mean self time, in ms, of the outer spans: their total
// duration minus that of the inner spans they caused, per outer span.
// Each inner span runs inside its outer one.
func selfMs(outer, inner []span) float64 {
	return (total(outer) - total(inner)) / float64(len(outer))
}
