// Fixture: the frozen benchmark driver's setters count.  Never compiled.
#include "lib/opts.hpp"

void bench(demo_options& o) { o.set_by_perfbench = 3; }
