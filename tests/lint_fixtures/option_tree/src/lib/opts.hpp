// Fixture: option structs for the unset-option rule.  Never compiled.
#pragma once

#include <string>

struct inner_options {
  bool flag = false;
};

struct demo_options {
  int set_by_example = 1;
  double set_by_perfbench = 2;
  std::string set_in_src;
  inner_options inner{};
  int only_tests_set = 3;
  int compared_only = 4;
  int commented_out = 5;
  /// Doc comment above the escape still counts.
  // option kept: Demo.KeptField
  int kept = 6;
  int kept_trailing = 7;  // option kept: Demo.KeptTrailing
  int after_kept = 8;
  // option kept:
  int kept_without_consumer = 9;
  int read_only() const { return kept; }
  static int helper();
  using size_type = int;
};

struct not_an_option_struct {
  int never_set = 0;
};
