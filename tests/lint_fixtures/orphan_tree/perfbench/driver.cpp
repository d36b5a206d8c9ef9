// Fixture: the frozen benchmark driver is read for includes.  Never compiled.
#  include "lib/bench_only.hpp"
