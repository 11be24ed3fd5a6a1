#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "nn/linear.hpp"
#include "util/rng.hpp"

namespace passflow::nn {
namespace {

TEST(Serialize, RoundTripPreservesValues) {
  util::Rng rng(1);
  Linear source(4, 3, rng, Init::kXavier, "layer");
  Linear dest(4, 3, rng, Init::kXavier, "layer");

  std::stringstream stream;
  save_params(stream, source.parameters());
  load_params(stream, dest.parameters());

  for (std::size_t i = 0; i < source.weight().value.size(); ++i) {
    EXPECT_FLOAT_EQ(dest.weight().value.data()[i],
                    source.weight().value.data()[i]);
  }
  for (std::size_t i = 0; i < source.bias().value.size(); ++i) {
    EXPECT_FLOAT_EQ(dest.bias().value.data()[i],
                    source.bias().value.data()[i]);
  }
}

TEST(Serialize, RejectsNameMismatch) {
  util::Rng rng(2);
  Linear source(2, 2, rng, Init::kXavier, "alpha");
  Linear dest(2, 2, rng, Init::kXavier, "beta");
  std::stringstream stream;
  save_params(stream, source.parameters());
  EXPECT_THROW(load_params(stream, dest.parameters()), std::runtime_error);
}

TEST(Serialize, RejectsHugeNameLengthWithoutAllocating) {
  util::Rng rng(2);
  Linear dest(2, 2, rng, Init::kXavier, "layer");
  std::string bytes = "PFCKPT1\n";
  const std::uint64_t count = dest.parameters().size();
  const std::uint32_t name_len = 0xFFFFFFFFu;
  bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
  bytes.append(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
  std::stringstream stream(bytes);
  try {
    load_params(stream, dest.parameters());
    FAIL() << "expected a name mismatch";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("param name mismatch"), std::string::npos)
        << message;
    EXPECT_NE(message.find("layer.weight"), std::string::npos) << message;
  }
}

TEST(Serialize, RejectsShapeMismatch) {
  util::Rng rng(3);
  Linear source(2, 2, rng, Init::kXavier, "layer");
  Linear dest(2, 3, rng, Init::kXavier, "layer");
  std::stringstream stream;
  save_params(stream, source.parameters());
  EXPECT_THROW(load_params(stream, dest.parameters()), std::runtime_error);
}

TEST(Serialize, RejectsCountMismatch) {
  util::Rng rng(4);
  Linear source(2, 2, rng, Init::kXavier, "layer");
  std::stringstream stream;
  save_params(stream, source.parameters());
  auto params = source.parameters();
  params.pop_back();
  EXPECT_THROW(load_params(stream, params), std::runtime_error);
}

TEST(Serialize, RejectsBadMagic) {
  util::Rng rng(5);
  Linear dest(2, 2, rng, Init::kXavier, "layer");
  std::stringstream stream("NOTACKPT this is garbage");
  EXPECT_THROW(load_params(stream, dest.parameters()), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedStream) {
  util::Rng rng(6);
  Linear source(8, 8, rng, Init::kXavier, "layer");
  std::stringstream stream;
  save_params(stream, source.parameters());
  const std::string full = stream.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_params(truncated, source.parameters()),
               std::runtime_error);
}

TEST(Serialize, FileRoundTrip) {
  util::Rng rng(7);
  Linear source(3, 3, rng, Init::kXavier, "layer");
  Linear dest(3, 3, rng, Init::kXavier, "layer");
  const std::string path = ::testing::TempDir() + "pf_ckpt_test.bin";
  save_params_file(path, source.parameters());
  load_params_file(path, dest.parameters());
  EXPECT_FLOAT_EQ(dest.weight().value(2, 2), source.weight().value(2, 2));
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  util::Rng rng(8);
  Linear dest(2, 2, rng, Init::kXavier, "layer");
  EXPECT_THROW(load_params_file("/nonexistent/ckpt.bin", dest.parameters()),
               std::runtime_error);
}

}  // namespace
}  // namespace passflow::nn
