// Fixture: a src/ assignment counts; a commented-out one does not.
// Never compiled.
#include "lib/opts.hpp"

void configure(demo_options& o) {
  o.set_in_src = "x";
  // o.commented_out = 1;
}
