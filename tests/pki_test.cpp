// Tests for sm::pki — chain building, transvalid completion, self-signed
// detection (both halves), expiry handling, and the invalid-reason taxonomy.
#include <gtest/gtest.h>

#include "pki/root_store.h"
#include "pki/verifier.h"
#include "util/prng.h"
#include "x509/builder.h"

namespace sm::pki {
namespace {

using crypto::SigScheme;
using crypto::SigningKey;
using util::Rng;
using x509::Certificate;
using x509::CertificateBuilder;
using x509::Name;

struct TestPki {
  SigningKey root_key;
  SigningKey intermediate_key;
  SigningKey leaf_key;
  Certificate root;
  Certificate intermediate;
  Certificate leaf;
  RootStore roots;
  IntermediatePool pool;
};

SigningKey make_key(std::uint64_t seed) {
  Rng rng(seed);
  return crypto::generate_keypair(SigScheme::kSimSha256, rng);
}

Certificate make_cert(const Name& subject, const Name& issuer,
                      const crypto::PublicKeyInfo& subject_key,
                      const SigningKey& issuer_key, std::uint64_t serial = 1,
                      util::UnixTime nb = util::make_date(2012, 1, 1),
                      util::UnixTime na = util::make_date(2020, 1, 1)) {
  return CertificateBuilder()
      .set_serial(bignum::BigUint(serial))
      .set_issuer(issuer)
      .set_subject(subject)
      .set_validity(nb, na)
      .set_public_key(subject_key)
      .sign(issuer_key);
}

TestPki make_test_pki() {
  TestPki t;
  t.root_key = make_key(1);
  t.intermediate_key = make_key(2);
  t.leaf_key = make_key(3);
  const Name root_name = Name::with_common_name("Test Root CA");
  const Name int_name = Name::with_common_name("Test Intermediate CA");
  const Name leaf_name = Name::with_common_name("www.example.com");
  t.root = make_cert(root_name, root_name, t.root_key.pub, t.root_key);
  t.intermediate =
      make_cert(int_name, root_name, t.intermediate_key.pub, t.root_key, 2);
  t.leaf =
      make_cert(leaf_name, int_name, t.leaf_key.pub, t.intermediate_key, 3);
  t.roots.add(t.root);
  return t;
}

// --- RootStore ----------------------------------------------------------------

TEST(RootStore, AddAndLookup) {
  TestPki t = make_test_pki();
  EXPECT_EQ(t.roots.size(), 1u);
  EXPECT_TRUE(t.roots.contains(t.root));
  EXPECT_FALSE(t.roots.contains(t.leaf));
  EXPECT_EQ(t.roots.find_by_subject(t.root.subject).size(), 1u);
  EXPECT_TRUE(t.roots.find_by_subject(t.leaf.subject).empty());
}

TEST(RootStore, DeduplicatesByFingerprint) {
  TestPki t = make_test_pki();
  t.roots.add(t.root);
  EXPECT_EQ(t.roots.size(), 1u);
}

TEST(RootStore, MultipleRootsSameSubject) {
  // Root key rolls produce several trusted certs with one subject.
  TestPki t = make_test_pki();
  const SigningKey new_key = make_key(99);
  const Certificate rolled = make_cert(t.root.subject, t.root.subject,
                                       new_key.pub, new_key, 7);
  t.roots.add(rolled);
  EXPECT_EQ(t.roots.size(), 2u);
  EXPECT_EQ(t.roots.find_by_subject(t.root.subject).size(), 2u);
}

TEST(RootStore, MatchesSpanAgreesWithFindBySubject) {
  // The non-allocating lookup the chain walk uses must see exactly the
  // candidates find_by_subject returns, in the same order.
  TestPki t = make_test_pki();
  const SigningKey new_key = make_key(98);
  t.roots.add(make_cert(t.root.subject, t.root.subject, new_key.pub, new_key,
                        8));
  const auto expected = t.roots.find_by_subject(t.root.subject);
  const auto indices = t.roots.matches(subject_lookup_key(t.root.subject));
  ASSERT_EQ(indices.size(), expected.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(&t.roots.at(indices[i]), expected[i]);
  }
  EXPECT_TRUE(t.roots.matches(subject_lookup_key(t.leaf.subject)).empty());
}

TEST(IntermediatePool, MatchesSpanAgreesWithFindBySubject) {
  TestPki t = make_test_pki();
  t.pool.add(t.intermediate);
  const auto indices =
      t.pool.matches(subject_lookup_key(t.intermediate.subject));
  ASSERT_EQ(indices.size(), 1u);
  EXPECT_EQ(&t.pool.at(indices[0]),
            t.pool.find_by_subject(t.intermediate.subject)[0]);
  EXPECT_TRUE(t.pool.matches(subject_lookup_key(t.leaf.subject)).empty());
}

// --- chain validation ----------------------------------------------------------

TEST(Verifier, FullPresentedChainValidates) {
  TestPki t = make_test_pki();
  const Verifier v(t.roots, t.pool);
  const std::vector<Certificate> presented = {t.intermediate};
  const ValidationResult r = v.verify(t.leaf, presented);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.reason, InvalidReason::kNone);
  EXPECT_EQ(r.chain_length, 3);
  EXPECT_FALSE(r.transvalid);
}

TEST(Verifier, RootSignedLeafValidates) {
  TestPki t = make_test_pki();
  const Certificate leaf = make_cert(Name::with_common_name("direct.com"),
                                     t.root.subject, t.leaf_key.pub,
                                     t.root_key, 9);
  const Verifier v(t.roots, t.pool);
  const ValidationResult r = v.verify(leaf);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.chain_length, 2);
}

TEST(Verifier, TransvalidChainCompletesFromPool) {
  // Server presents a broken (empty) chain, but the intermediate is in the
  // pool — the paper's "transvalid" case must validate.
  TestPki t = make_test_pki();
  t.pool.add(t.intermediate);
  const Verifier v(t.roots, t.pool);
  const ValidationResult r = v.verify(t.leaf);
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(r.transvalid);
  EXPECT_EQ(r.chain_length, 3);
}

TEST(Verifier, MissingIntermediateIsUntrusted) {
  TestPki t = make_test_pki();
  const Verifier v(t.roots, t.pool);  // pool empty, nothing presented
  const ValidationResult r = v.verify(t.leaf);
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.reason, InvalidReason::kUntrustedIssuer);
}

TEST(Verifier, TrustedRootItselfIsValid) {
  TestPki t = make_test_pki();
  const Verifier v(t.roots, t.pool);
  const ValidationResult r = v.verify(t.root);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.chain_length, 1);
}

TEST(Verifier, RootSubjectWithDifferentBytesIsNotARoot) {
  // Root membership is exact-DER identity, not a subject match: a
  // certificate that copies the root's subject is never the root itself.
  TestPki t = make_test_pki();
  const Verifier v(t.roots, t.pool);
  const SigningKey other_key = make_key(97);
  const Certificate impostor = make_cert(t.root.subject, t.root.subject,
                                         other_key.pub, other_key, 7);
  EXPECT_FALSE(t.roots.contains(impostor));
  const ValidationResult forged = v.verify(impostor);
  EXPECT_FALSE(forged.valid);
  EXPECT_EQ(forged.reason, InvalidReason::kSelfSigned);

  // Same subject and issuer, signed by the root's key: it chains to the
  // root (length 2) rather than being taken for it.
  const Certificate reissued = make_cert(t.root.subject, t.root.subject,
                                         other_key.pub, t.root_key, 8);
  EXPECT_FALSE(t.roots.contains(reissued));
  const ValidationResult chained = v.verify(reissued);
  EXPECT_TRUE(chained.valid);
  EXPECT_EQ(chained.chain_length, 2);

  EXPECT_TRUE(t.roots.contains(t.root));
  const ValidationResult root = v.verify(t.root);
  EXPECT_TRUE(root.valid);
  EXPECT_EQ(root.chain_length, 1);
}

// --- self-signed detection -------------------------------------------------------

TEST(Verifier, SelfSignedLeafIsInvalidSelfSigned) {
  TestPki t = make_test_pki();
  const SigningKey device_key = make_key(42);
  const Certificate cert =
      make_cert(Name::with_common_name("192.168.1.1"),
                Name::with_common_name("192.168.1.1"), device_key.pub,
                device_key);
  const Verifier v(t.roots, t.pool);
  const ValidationResult r = v.verify(cert);
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.reason, InvalidReason::kSelfSigned);
}

TEST(Verifier, Footnote7SelfSignedWithMismatchedNames) {
  // Signature verifies under the cert's own key although subject != issuer:
  // openssl would not report error 19, but the paper's manual check catches
  // it. We must classify it self-signed too.
  TestPki t = make_test_pki();
  const SigningKey device_key = make_key(43);
  const Certificate cert = make_cert(
      Name::with_common_name("device.local"),
      Name::with_common_name("Totally Separate CA"), device_key.pub,
      device_key);
  EXPECT_TRUE(is_self_signature(cert));
  EXPECT_FALSE(cert.subject_matches_issuer());
  const Verifier v(t.roots, t.pool);
  EXPECT_EQ(v.verify(cert).reason, InvalidReason::kSelfSigned);
}

TEST(Verifier, UntrustedCaSignedLeaf) {
  // Signed by a self-signed CA that is not in the root store: the chain
  // roots at an untrusted certificate.
  TestPki t = make_test_pki();
  const SigningKey rogue_key = make_key(44);
  const Name rogue_name = Name::with_common_name("Rogue CA");
  const Certificate rogue_ca =
      make_cert(rogue_name, rogue_name, rogue_key.pub, rogue_key);
  const SigningKey device_key = make_key(45);
  const Certificate leaf =
      make_cert(Name::with_common_name("device"), rogue_name, device_key.pub,
                rogue_key, 5);
  const Verifier v(t.roots, t.pool);
  const std::vector<Certificate> presented = {rogue_ca};
  const ValidationResult r = v.verify(leaf, presented);
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.reason, InvalidReason::kUntrustedIssuer);
}

TEST(Verifier, BadSignatureDetected) {
  // Issuer name matches a root but the signature does not verify.
  TestPki t = make_test_pki();
  const SigningKey wrong_key = make_key(46);
  const Certificate forged =
      make_cert(Name::with_common_name("forged.com"), t.root.subject,
                make_key(47).pub, wrong_key, 6);
  const Verifier v(t.roots, t.pool);
  const ValidationResult r = v.verify(forged);
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.reason, InvalidReason::kBadSignature);
}

// --- version / validity handling ---------------------------------------------

TEST(Verifier, MalformedVersionRejected) {
  TestPki t = make_test_pki();
  const SigningKey key = make_key(48);
  const Certificate cert = CertificateBuilder()
                               .set_raw_version(12)  // displayed version 13
                               .set_serial(bignum::BigUint(1))
                               .set_issuer(Name::with_common_name("v13"))
                               .set_subject(Name::with_common_name("v13"))
                               .set_validity(0, 1)
                               .set_public_key(key.pub)
                               .sign(key);
  const Verifier v(t.roots, t.pool);
  EXPECT_EQ(v.verify(cert).reason, InvalidReason::kMalformedVersion);
}

TEST(Verifier, NegativeValidityIsNeverValid) {
  TestPki t = make_test_pki();
  const Certificate cert = make_cert(
      Name::with_common_name("backwards"), t.root.subject, make_key(49).pub,
      t.root_key, 8, util::make_date(2015, 1, 1), util::make_date(2014, 1, 1));
  const Verifier v(t.roots, t.pool);
  EXPECT_EQ(v.verify(cert).reason, InvalidReason::kNeverValid);
}

TEST(Verifier, ExpiryIgnoredByDefault) {
  // The paper treats certificates valid at *some* point as valid.
  TestPki t = make_test_pki();
  const Certificate cert = make_cert(
      Name::with_common_name("expired.com"), t.root.subject, make_key(50).pub,
      t.root_key, 9, util::make_date(2000, 1, 1), util::make_date(2001, 1, 1));
  const Verifier v(t.roots, t.pool);
  EXPECT_TRUE(v.verify(cert).valid);
}

TEST(Verifier, ExpiryEnforcedInStrictMode) {
  // Leaf valid 2013-2014, root valid 2012-2020 (see make_test_pki): the
  // whole chain is inside its windows during 2013 but the leaf is expired
  // by 2016.
  TestPki t = make_test_pki();
  const Certificate cert = make_cert(
      Name::with_common_name("expired.com"), t.root.subject, make_key(51).pub,
      t.root_key, 9, util::make_date(2013, 1, 1), util::make_date(2014, 1, 1));
  VerifyOptions opts;
  opts.enforce_expiry = true;
  opts.at_time = util::make_date(2016, 6, 1);
  const Verifier strict(t.roots, t.pool, opts);
  EXPECT_EQ(strict.verify(cert).reason, InvalidReason::kExpired);
  opts.at_time = util::make_date(2013, 6, 1);
  const Verifier in_window(t.roots, t.pool, opts);
  EXPECT_TRUE(in_window.verify(cert).valid);
}

TEST(Verifier, ChainLengthLimitEnforced) {
  // Build a chain longer than max_chain_length and confirm rejection.
  TestPki t = make_test_pki();
  VerifyOptions opts;
  opts.max_chain_length = 3;
  std::vector<Certificate> presented;
  SigningKey parent_key = t.root_key;
  Name parent_name = t.root.subject;
  SigningKey current_key;
  Certificate leaf;
  for (int i = 0; i < 4; ++i) {
    current_key = make_key(100 + static_cast<std::uint64_t>(i));
    const Name name =
        Name::with_common_name("Level " + std::to_string(i));
    leaf = make_cert(name, parent_name, current_key.pub, parent_key,
                     10 + static_cast<std::uint64_t>(i));
    presented.push_back(leaf);
    parent_key = current_key;
    parent_name = leaf.subject;
  }
  const Verifier v(t.roots, t.pool, opts);
  const ValidationResult r = v.verify(leaf, presented);
  EXPECT_FALSE(r.valid);
  VerifyOptions relaxed;
  relaxed.max_chain_length = 8;
  const Verifier v2(t.roots, t.pool, relaxed);
  EXPECT_TRUE(v2.verify(leaf, presented).valid);
}

TEST(InvalidReason, Labels) {
  EXPECT_EQ(to_string(InvalidReason::kSelfSigned), "self-signed");
  EXPECT_EQ(to_string(InvalidReason::kUntrustedIssuer), "untrusted-issuer");
  EXPECT_EQ(to_string(InvalidReason::kNone), "none");
}

}  // namespace
}  // namespace sm::pki
