// Fixture: obeys every octo_lint rule — registered env var, registered
// metric, task_graph body that never blocks.  Never compiled.
#include "amt/task_graph.hpp"
#include "apex/apex.hpp"
#include "common/config.hpp"

void clean_fixture(octo::amt::runtime& rt) {
  const auto mode = octo::config::env("OCTO_STEP_MODE");
  (void)mode;
  const auto id = octo::apex::registry::instance().counter("app.steps");
  (void)id;
  octo::amt::task_graph g(rt, false);
  g.add("ok", g.footprint().w(octo::apex::rgn::field, 0), [] {});
  (void)g.drain();  // outside the add call extent: allowed
}
