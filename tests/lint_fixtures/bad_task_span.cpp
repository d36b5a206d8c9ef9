// Fixture: a trace span opened inside a task_graph task body — the graph
// already records the task's span under its class, so the task would be
// named twice and its time split between the two names.  Never compiled.
#include "amt/task_graph.hpp"
#include "apex/trace.hpp"

void bad_task_span(octo::amt::runtime& rt) {
  octo::amt::task_graph g(rt, false);
  g.add("bad.leaf", g.footprint().w(octo::apex::rgn::field, 0), [] {
    const octo::apex::scoped_trace_span span("bad.kernel");  // named twice
  });
  // Outside the add call extent: a span of the caller, allowed.
  const octo::apex::scoped_trace_span span("bad.phase");
  (void)g.drain();
}
