// Printing for the {int, std::uint64_t, int} structs the parameterized
// sweeps run over.
//
// gtest names every instance of a parameterized test, in --gtest_list_tests
// and so in CTest, with its printed parameter. A struct without a printer is
// printed as its bytes ("24-byte object <01-00 00-00 ...>"), and those bytes
// include the padding after each int, which nothing initializes: the same
// test got a different CTest name on every listing. print_case_bytes prints
// the same text with the padding as zero, so a test's name is the same in
// every build.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>

namespace bsb::testutil {

template <class Case>
void print_case_bytes(const Case& c, std::ostream* os) {
  unsigned char bytes[sizeof(Case)] = {};
  const auto* base = reinterpret_cast<const unsigned char*>(&c);
  const auto copy_field = [&](const auto& field) {
    const auto* at = reinterpret_cast<const unsigned char*>(&field);
    std::memcpy(bytes + (at - base), at, sizeof field);
  };
  const auto& [a, b, d] = c;
  copy_field(a);
  copy_field(b);
  copy_field(d);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

}  // namespace bsb::testutil
