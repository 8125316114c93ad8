// Entry point of the `safelight` binary (see cli/cli.hpp for the command
// surface). Kept out of the library so tests can link cli::run without a
// second main.
#include <vector>

#include "cli/cli.hpp"

int main(int argc, char** argv) {
  return safelight::cli::run(std::vector<std::string>(argv + 1, argv + argc));
}
