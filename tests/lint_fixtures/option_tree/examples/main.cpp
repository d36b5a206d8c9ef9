// Fixture: example setters, a nested chain and a comparison.  Never
// compiled.
#include "lib/opts.hpp"

int main() {
  demo_options o;
  o.set_by_example = 2;
  o.inner.flag = true;
  return o.compared_only == 4 ? 0 : 1;
}
