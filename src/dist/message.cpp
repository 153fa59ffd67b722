#include "dist/message.hpp"

#include <cmath>
#include <cstring>

#include "tensor/bitpack.hpp"
#include "util/error.hpp"

namespace ddnn::dist {

const char* to_string(MessageKind kind) {
  switch (kind) {
    case MessageKind::kClassScores: return "class-scores";
    case MessageKind::kBinaryFeatureMap: return "binary-features";
    case MessageKind::kRawImage: return "raw-image";
  }
  return "?";
}

Message encode_class_scores(const Tensor& scores) {
  DDNN_CHECK(scores.defined(), "encoding undefined tensor");
  DDNN_CHECK(scores.ndim() == 1 || (scores.ndim() == 2 && scores.dim(0) == 1),
             "class scores must be [C] or [1, C], got "
                 << scores.shape().to_string());
  Message msg;
  msg.kind = MessageKind::kClassScores;
  msg.payload.resize(static_cast<std::size_t>(scores.numel()) * sizeof(float));
  std::memcpy(msg.payload.data(), scores.data(), msg.payload.size());
  return msg;
}

Tensor decode_class_scores(const Message& msg, std::int64_t num_classes) {
  DDNN_CHECK(msg.kind == MessageKind::kClassScores,
             "expected class-scores, got " << to_string(msg.kind));
  DDNN_CHECK(num_classes > 0,
             "class-scores decode needs a positive class count, got "
                 << num_classes);
  DDNN_CHECK(msg.payload.size() ==
                 static_cast<std::size_t>(num_classes) * sizeof(float),
             "truncated or oversized class-scores payload: "
                 << msg.payload.size() << " B, want "
                 << num_classes * sizeof(float) << " B for " << num_classes
                 << " classes");
  Tensor t(Shape{1, num_classes});
  std::memcpy(t.data(), msg.payload.data(), msg.payload.size());
  return t;
}

Message encode_binary_feature_map(const Tensor& features) {
  DDNN_CHECK(features.defined(), "encoding undefined tensor");
  // Precondition: the tensor really is binarized (exact +-1), otherwise
  // packing would silently lose information. Checked while packing.
  Message msg;
  msg.kind = MessageKind::kBinaryFeatureMap;
  std::int64_t bad = -1;
  msg.payload = pack_binarized(features, bad);
  DDNN_CHECK(bad < 0, "feature map is not binarized at index "
                          << bad << ": " << features.data()[bad]);
  return msg;
}

Tensor decode_binary_feature_map(const Message& msg, Shape shape) {
  DDNN_CHECK(msg.kind == MessageKind::kBinaryFeatureMap,
             "expected binary-features, got " << to_string(msg.kind));
  DDNN_CHECK(static_cast<std::int64_t>(msg.payload.size()) ==
                 packed_size_bytes(shape.numel()),
             "truncated or oversized binary-features payload: "
                 << msg.payload.size() << " B, want "
                 << packed_size_bytes(shape.numel()) << " B for shape "
                 << shape.to_string());
  return unpack_signs(msg.payload, std::move(shape));
}

Message encode_raw_image(const Tensor& image) {
  DDNN_CHECK(image.defined(), "encoding undefined tensor");
  Message msg;
  msg.kind = MessageKind::kRawImage;
  msg.payload.resize(static_cast<std::size_t>(image.numel()));
  for (std::int64_t i = 0; i < image.numel(); ++i) {
    const float clipped = std::fmin(1.0f, std::fmax(0.0f, image[i]));
    msg.payload[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(std::lround(clipped * 255.0f));
  }
  return msg;
}

Tensor decode_raw_image(const Message& msg, Shape shape) {
  DDNN_CHECK(msg.kind == MessageKind::kRawImage,
             "expected raw-image, got " << to_string(msg.kind));
  DDNN_CHECK(static_cast<std::int64_t>(msg.payload.size()) == shape.numel(),
             "truncated or oversized raw-image payload: "
                 << msg.payload.size() << " B, want " << shape.numel()
                 << " B for shape " << shape.to_string());
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(msg.payload[static_cast<std::size_t>(i)]) /
           255.0f;
  }
  return t;
}

Tensor decode_features(const Message& msg, const Shape& shape) {
  if (msg.kind == MessageKind::kRawImage) {
    return decode_raw_image(msg, shape);
  }
  return decode_binary_feature_map(msg, shape);
}

}  // namespace ddnn::dist
