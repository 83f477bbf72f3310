#include "dsm/run_ranks.hpp"

#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace hdsm::dsm {

void run_ranks(std::size_t remotes,
               const std::function<void(std::size_t)>& remote,
               const std::function<void()>& master,
               const std::function<void()>& on_failure) {
  std::mutex mu;
  std::exception_ptr first;
  std::size_t first_rank = 0;
  const auto contained = [&](std::size_t rank, const auto& body) {
    try {
      body();
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(mu);
        if (!first) {
          first = std::current_exception();
          first_rank = rank;
        }
      }
      on_failure();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(remotes);
  for (std::size_t i = 0; i < remotes; ++i) {
    threads.emplace_back([&contained, &remote, i] {
      contained(i + 1, [&] { remote(i); });
    });
  }
  contained(0, master);
  for (std::thread& t : threads) t.join();
  if (!first) return;

  const std::string rank = "rank " + std::to_string(first_rank) + ": ";
  try {
    std::rethrow_exception(first);
  } catch (const std::exception& e) {
    std::throw_with_nested(std::runtime_error(rank + e.what()));
  } catch (...) {
    std::throw_with_nested(std::runtime_error(rank + "unknown exception"));
  }
}

}  // namespace hdsm::dsm
