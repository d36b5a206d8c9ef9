// Fixture: a blocking .get() inside a task_graph task body — the worker
// executing the task would block instead of helping, the exact deadlock
// the graph's derived edges exist to avoid.  Never compiled.
#include "amt/future.hpp"
#include "amt/task_graph.hpp"

void bad_blocking_get(octo::amt::runtime& rt,
                      octo::amt::future<int> input) {
  octo::amt::task_graph g(rt, false);
  g.add("bad", g.footprint().w(octo::apex::rgn::field, 0),
        [&input, &rt] {
          (void)input.get(rt);  // blocks a worker mid-task
        });
  input.wait(rt);  // outside the add call extent: allowed
}
