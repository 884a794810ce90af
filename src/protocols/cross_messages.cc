// Wire codecs for the cross-cluster protocol messages (coordinator-based
// §4.3 and flattened §4.4 families). Decoders are defensive: every count
// is bounded by the remaining buffer and a carried block must hash to the
// digest it claims, so arbitrary bytes can never crash or fool a node.

#include "protocols/cross_messages.h"

namespace qanaat {

namespace {

void EncodeBlockPtr(Encoder* enc, const BlockPtr& b) {
  enc->PutBool(b != nullptr);
  if (b != nullptr) b->EncodeTo(enc);
}

bool DecodeBlockPtr(Decoder* dec, BlockPtr* out) {
  bool present;
  if (!dec->GetBool(&present)) return false;
  if (!present) {
    out->reset();
    return true;
  }
  auto b = std::make_shared<Block>();
  if (!Block::DecodeFrom(dec, b.get())) return false;
  *out = std::move(b);
  return true;
}

bool DecodeAssignments(Decoder* dec, std::vector<ShardAssignment>* out) {
  uint16_t n;
  if (!dec->GetU16(&n)) return false;
  if (n > dec->remaining()) return false;
  out->resize(n);
  for (auto& a : *out) {
    if (!ShardAssignment::DecodeFrom(dec, &a)) return false;
  }
  return true;
}

}  // namespace

void XPrepareMsg::EncodeTo(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(coord_cluster));
  EncodeBlockPtr(enc, block);
  EncodeDigestTo(enc, block_digest);
  coord_cert.EncodeTo(enc);
}

bool XPrepareMsg::DecodeFrom(Decoder* dec, XPrepareMsg* out) {
  uint32_t c;
  if (!dec->GetU32(&c)) return false;
  out->coord_cluster = static_cast<int>(c);
  if (!DecodeBlockPtr(dec, &out->block)) return false;
  if (!DecodeDigestFrom(dec, &out->block_digest)) return false;
  if (out->block != nullptr && out->block->Digest() != out->block_digest) {
    return false;
  }
  return CommitCertificate::DecodeFrom(dec, &out->coord_cert);
}

void XPreparedMsg::EncodeTo(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(from_cluster));
  EncodeDigestTo(enc, block_digest);
  enc->PutBool(has_assignment);
  if (has_assignment) assignment.EncodeTo(enc);
  enc->PutBool(is_cluster_cert);
  if (is_cluster_cert) cluster_cert.EncodeTo(enc);
  sig.EncodeTo(enc);
  enc->PutBool(abort);
}

bool XPreparedMsg::DecodeFrom(Decoder* dec, XPreparedMsg* out) {
  uint32_t c;
  if (!dec->GetU32(&c)) return false;
  out->from_cluster = static_cast<int>(c);
  if (!DecodeDigestFrom(dec, &out->block_digest)) return false;
  if (!dec->GetBool(&out->has_assignment)) return false;
  if (out->has_assignment &&
      !ShardAssignment::DecodeFrom(dec, &out->assignment)) {
    return false;
  }
  if (!dec->GetBool(&out->is_cluster_cert)) return false;
  if (out->is_cluster_cert &&
      !CommitCertificate::DecodeFrom(dec, &out->cluster_cert)) {
    return false;
  }
  return Signature::DecodeFrom(dec, &out->sig) && dec->GetBool(&out->abort);
}

void XCommitMsg::EncodeTo(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(coord_cluster));
  EncodeBlockPtr(enc, block);
  EncodeDigestTo(enc, block_digest);
  coord_cert.EncodeTo(enc);
  enc->PutU16(static_cast<uint16_t>(assignments.size()));
  for (const auto& a : assignments) a.EncodeTo(enc);
  enc->PutBool(is_abort);
}

bool XCommitMsg::DecodeFrom(Decoder* dec, XCommitMsg* out) {
  uint32_t c;
  if (!dec->GetU32(&c)) return false;
  out->coord_cluster = static_cast<int>(c);
  if (!DecodeBlockPtr(dec, &out->block)) return false;
  if (!DecodeDigestFrom(dec, &out->block_digest)) return false;
  if (out->block != nullptr && out->block->Digest() != out->block_digest) {
    return false;
  }
  return CommitCertificate::DecodeFrom(dec, &out->coord_cert) &&
         DecodeAssignments(dec, &out->assignments) &&
         dec->GetBool(&out->is_abort);
}

void FProposeMsg::EncodeTo(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(initiator_cluster));
  EncodeBlockPtr(enc, block);
  EncodeDigestTo(enc, block_digest);
  sig.EncodeTo(enc);
}

bool FProposeMsg::DecodeFrom(Decoder* dec, FProposeMsg* out) {
  uint32_t c;
  if (!dec->GetU32(&c)) return false;
  out->initiator_cluster = static_cast<int>(c);
  if (!DecodeBlockPtr(dec, &out->block)) return false;
  if (!DecodeDigestFrom(dec, &out->block_digest)) return false;
  if (out->block != nullptr && out->block->Digest() != out->block_digest) {
    return false;
  }
  return Signature::DecodeFrom(dec, &out->sig);
}

void FAcceptMsg::EncodeTo(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(from_cluster));
  EncodeDigestTo(enc, block_digest);
  enc->PutBool(has_assignment);
  if (has_assignment) assignment.EncodeTo(enc);
  sig.EncodeTo(enc);
}

bool FAcceptMsg::DecodeFrom(Decoder* dec, FAcceptMsg* out) {
  uint32_t c;
  if (!dec->GetU32(&c)) return false;
  out->from_cluster = static_cast<int>(c);
  if (!DecodeDigestFrom(dec, &out->block_digest)) return false;
  if (!dec->GetBool(&out->has_assignment)) return false;
  if (out->has_assignment &&
      !ShardAssignment::DecodeFrom(dec, &out->assignment)) {
    return false;
  }
  return Signature::DecodeFrom(dec, &out->sig);
}

void FCommitMsg::EncodeTo(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(from_cluster));
  EncodeDigestTo(enc, block_digest);
  sig.EncodeTo(enc);
  enc->PutBool(fast_path);
  enc->PutU16(static_cast<uint16_t>(assignments.size()));
  for (const auto& a : assignments) a.EncodeTo(enc);
}

bool FCommitMsg::DecodeFrom(Decoder* dec, FCommitMsg* out) {
  uint32_t c;
  if (!dec->GetU32(&c)) return false;
  out->from_cluster = static_cast<int>(c);
  return DecodeDigestFrom(dec, &out->block_digest) &&
         Signature::DecodeFrom(dec, &out->sig) &&
         dec->GetBool(&out->fast_path) &&
         DecodeAssignments(dec, &out->assignments);
}

void QueryMsg::EncodeTo(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(from_cluster));
  EncodeDigestTo(enc, block_digest);
  sig.EncodeTo(enc);
}

bool QueryMsg::DecodeFrom(Decoder* dec, QueryMsg* out) {
  uint32_t c;
  if (!dec->GetU32(&c)) return false;
  out->from_cluster = static_cast<int>(c);
  return DecodeDigestFrom(dec, &out->block_digest) &&
         Signature::DecodeFrom(dec, &out->sig);
}

}  // namespace qanaat
