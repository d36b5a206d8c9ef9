// Fixture: tests alone do not make a field an option.  Never compiled.
#include "lib/opts.hpp"

void test(demo_options& o) { o.only_tests_set = 7; }
