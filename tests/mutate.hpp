// Seeded text mutator for the parser fuzz tests (test_chaos, test_batch,
// test_core, test_cli, test_imaging).
// A fixed seed replays the same mutants on every run: byte flips,
// truncations, and swaps of one number token to nan, inf, -1 or 1e300.
#pragma once

#include <cstddef>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace diffreg::fuzz {

/// One to three mutations of `text`, drawn from `rng`.
inline std::string mutate(std::string text, std::mt19937_64& rng) {
  static const char* const kHostile[] = {"nan", "inf", "-1", "1e300"};
  const auto pick = [&](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
  };
  const int mutations = 1 + static_cast<int>(rng() % 3);
  for (int m = 0; m < mutations && !text.empty(); ++m) {
    switch (rng() % 3) {
      case 0:  // flip one bit of one byte
        text[pick(text.size())] ^= static_cast<char>(1u << pick(8));
        break;
      case 1:  // truncate
        text.resize(pick(text.size()));
        break;
      default: {  // swap one number token ([0-9.]+) for a hostile value
        std::vector<std::pair<std::size_t, std::size_t>> tokens;
        for (std::size_t i = 0; i < text.size();) {
          std::size_t j = i;
          while (j < text.size() &&
                 ((text[j] >= '0' && text[j] <= '9') || text[j] == '.'))
            ++j;
          if (j > i) tokens.emplace_back(i, j - i);
          i = j + (j == i);
        }
        if (tokens.empty()) break;
        const auto [at, len] = tokens[pick(tokens.size())];
        text.replace(at, len, kHostile[pick(4)]);
      }
    }
  }
  return text;
}

}  // namespace diffreg::fuzz
